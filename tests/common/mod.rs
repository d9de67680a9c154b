//! Test helpers shared by more than one integration test.

use mario::core::simulator::SimError;
use mario::ir::ExecError;

/// Whether the deadlock check and the simulator report the same fact
/// about a single-iteration run: both accept, both name the same
/// mismatch or the same blocked devices, or the check's unmatched receive
/// is one of the devices the simulator names as blocked.
pub fn same_answer<T>(exec: &Result<usize, ExecError>, sim: &Result<T, SimError>) -> bool {
    match (exec, sim) {
        (Ok(_), Ok(_)) => true,
        (Err(ExecError::MessageMismatch(a)), Err(SimError::Mismatch(b))) => a == b,
        (Err(ExecError::Deadlock(a)), Err(SimError::Deadlock(b))) => a == b,
        (Err(ExecError::UnmatchedRecv(r)), Err(SimError::Deadlock(b))) => b.0.contains(r),
        _ => false,
    }
}
