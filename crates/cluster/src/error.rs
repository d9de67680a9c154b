//! Emulator error types.

use crate::faults::FaultReport;
use mario_ir::{AllocKey, Deadlock, DeviceId, Instr, Mismatch, OomError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a cluster run failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EmuError {
    /// A device exceeded its memory capacity.
    Oom {
        /// The faulting device.
        device: DeviceId,
        /// Instruction index within the device program.
        pc: usize,
        /// The failing instruction; `None` at the checkpoint boundary.
        instr: Option<Instr>,
        /// Ledger details.
        cause: OomError,
    },
    /// An instruction allocated a buffer that was still live: the
    /// instruction stream violates the activation lifecycle (malformed
    /// schedule).
    DoubleAlloc {
        /// The allocating device.
        device: DeviceId,
        /// Instruction index within the device program.
        pc: usize,
        /// The allocating instruction; `None` at the checkpoint boundary.
        instr: Option<Instr>,
        /// The buffer that was still live.
        key: AllocKey,
    },
    /// A p2p receive got a message with the wrong identity.
    Mismatch(Mismatch),
    /// No device can move: every unfinished device, where it stands, as
    /// [`mario_ir::exec::stuck`] reads the run.
    Deadlock(Deadlock),
    /// An injected fault terminated the run (structured attribution).
    /// Boxed: the report is by far the largest payload, and `Result`s
    /// carrying this enum travel through every hot emulator path.
    Fault(Box<FaultReport>),
}

impl EmuError {
    /// The device that raised the error; for a deadlock, the lowest
    /// blocked one.
    pub fn device(&self) -> DeviceId {
        match self {
            EmuError::Oom { device, .. } | EmuError::DoubleAlloc { device, .. } => *device,
            EmuError::Mismatch(m) => m.recv.device,
            EmuError::Deadlock(d) => d.0[0].device,
            EmuError::Fault(report) => report.device,
        }
    }

    /// True for out-of-memory failures (the condition the schedule tuner
    /// penalizes, §5.3).
    pub fn is_oom(&self) -> bool {
        matches!(self, EmuError::Oom { .. })
    }

    /// The structured fault report, when the failure was injected.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        match self {
            EmuError::Fault(report) => Some(report.as_ref()),
            _ => None,
        }
    }

    /// Root-cause rank used by the runner when several devices fail at
    /// once: lower wins. Injected faults outrank the deadlocks they leave
    /// behind.
    pub(crate) fn priority(&self) -> u8 {
        match self {
            EmuError::Fault(_) => 0,
            EmuError::Oom { .. } => 1,
            EmuError::DoubleAlloc { .. } | EmuError::Mismatch(_) => 2,
            EmuError::Deadlock(_) => 3,
        }
    }
}

/// An instruction as the error text names it: `CKPT` for the checkpoint
/// boundary.
struct Step<'a>(&'a Option<Instr>);

impl fmt::Display for Step<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(instr) => write!(f, "{instr}"),
            None => f.write_str("CKPT"),
        }
    }
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Oom {
                device,
                pc,
                instr,
                cause,
            } => write!(f, "{device} OOM at #{pc} ({}): {cause}", Step(instr)),
            EmuError::DoubleAlloc {
                device,
                pc,
                instr,
                key,
            } => write!(
                f,
                "{device} at #{pc} ({}): double allocation of {key:?}",
                Step(instr)
            ),
            EmuError::Mismatch(m) => write!(f, "comm mismatch at #{}: {m}", m.recv.pc),
            EmuError::Deadlock(d) => write!(f, "deadlock: {d}"),
            EmuError::Fault(report) => write!(f, "injected fault: {report}"),
        }
    }
}

impl std::error::Error for EmuError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;

    fn deadlock() -> EmuError {
        EmuError::Deadlock(Deadlock(vec![mario_ir::Blocked {
            device: DeviceId(1),
            pc: 4,
            iteration: 0,
            instr: Instr::recv_act(1u32, 0u32, DeviceId(0)),
        }]))
    }

    #[test]
    fn oom_classification() {
        let e = EmuError::Oom {
            device: DeviceId(3),
            pc: 7,
            instr: Some(Instr::forward(0u32, 0u32)),
            cause: OomError {
                requested: 10,
                in_use: 95,
                capacity: 100,
            },
        };
        assert!(e.is_oom());
        assert_eq!(e.device(), DeviceId(3));
        assert!(!deadlock().is_oom());
        assert_eq!(deadlock().device(), DeviceId(1));
    }

    #[test]
    fn errors_name_the_instruction_or_the_checkpoint_boundary() {
        let oom = |instr| EmuError::Oom {
            device: DeviceId(3),
            pc: 7,
            instr,
            cause: OomError {
                requested: 10,
                in_use: 95,
                capacity: 100,
            },
        };
        assert_eq!(
            oom(Some(Instr::forward(0u32, 0u32))).to_string(),
            "d3 OOM at #7 (F0^0): out of memory: requested 10 B with 95 B in use of 100 B capacity"
        );
        assert_eq!(
            oom(None).to_string(),
            "d3 OOM at #7 (CKPT): out of memory: requested 10 B with 95 B in use of 100 B capacity"
        );
        let double = EmuError::DoubleAlloc {
            device: DeviceId(0),
            pc: 2,
            instr: None,
            key: AllocKey::Snapshot,
        };
        assert_eq!(
            double.to_string(),
            "d0 at #2 (CKPT): double allocation of Snapshot"
        );
        assert_eq!(deadlock().to_string(), "deadlock: d1#4 iter 0: RA1^0<d0");
    }

    #[test]
    fn fault_errors_carry_their_report_and_win_priority() {
        let report = FaultReport {
            fault: FaultKind::Crash {
                device: DeviceId(2),
                pc: 9,
            },
            device: DeviceId(2),
            pc: 9,
            instr: "B1^0".into(),
            blocked_peer: None,
            vtime: 1234,
            iteration: 0,
            last_checkpoint: 0,
            ckpt_paid_ns: 0,
            group: None,
            detail: "device crashed".into(),
        };
        let e = EmuError::Fault(Box::new(report.clone()));
        assert_eq!(e.device(), DeviceId(2));
        assert_eq!(e.fault_report(), Some(&report));
        assert!(e.priority() < deadlock().priority());
        assert!(e.to_string().contains("crash"), "{e}");
    }
}
