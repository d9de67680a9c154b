//! Emulator error types.

use crate::faults::FaultReport;
use mario_ir::{AllocKey, DeviceId, OomError};
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
        /// The failing instruction (rendered).
        instr: String,
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
        /// The allocating instruction (rendered).
        instr: String,
        /// The buffer that was still live.
        key: AllocKey,
    },
    /// A p2p receive got a message with the wrong identity.
    CommMismatch {
        /// The receiving device.
        device: DeviceId,
        /// Instruction index within the device program.
        pc: usize,
        /// What was expected vs found.
        detail: String,
    },
    /// A p2p operation is parked on a link no event can ever serve: every
    /// unfinished device is parked, so the schedule deadlocks.
    DeadlockSuspected {
        /// The blocked device.
        device: DeviceId,
        /// Instruction index within the device program.
        pc: usize,
        /// The blocked instruction (rendered).
        instr: String,
        /// The wait chain starting at `device`: each entry is blocked on
        /// the next; a repeated first entry names a true cycle.
        cycle: Vec<DeviceId>,
    },
    /// A peer device aborted, closing its channels.
    PeerFailed {
        /// The device observing the failure.
        device: DeviceId,
        /// Instruction index within the device program.
        pc: usize,
    },
    /// An instruction names a peer no link was built for (malformed
    /// schedule).
    NoRoute {
        /// The device missing the link.
        device: DeviceId,
        /// Instruction index within the device program.
        pc: usize,
        /// The unreachable peer.
        peer: DeviceId,
    },
    /// An injected fault terminated the run (structured attribution).
    /// Boxed: the report is by far the largest payload, and `Result`s
    /// carrying this enum travel through every hot emulator path.
    Fault(Box<FaultReport>),
}

impl EmuError {
    /// The device that raised the error.
    pub fn device(&self) -> DeviceId {
        match self {
            EmuError::Oom { device, .. }
            | EmuError::DoubleAlloc { device, .. }
            | EmuError::CommMismatch { device, .. }
            | EmuError::DeadlockSuspected { device, .. }
            | EmuError::PeerFailed { device, .. }
            | EmuError::NoRoute { device, .. } => *device,
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
    /// once: lower wins. Injected faults outrank the secondary errors
    /// they cascade into (peer failures, deadlocks).
    pub(crate) fn priority(&self) -> u8 {
        match self {
            EmuError::Fault(_) => 0,
            EmuError::Oom { .. } => 1,
            EmuError::DoubleAlloc { .. } | EmuError::CommMismatch { .. } => 2,
            EmuError::NoRoute { .. } => 3,
            EmuError::DeadlockSuspected { .. } => 4,
            EmuError::PeerFailed { .. } => 5,
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
            } => write!(f, "{device} OOM at #{pc} ({instr}): {cause}"),
            EmuError::DoubleAlloc {
                device,
                pc,
                instr,
                key,
            } => write!(
                f,
                "{device} at #{pc} ({instr}): double allocation of {key:?}"
            ),
            EmuError::CommMismatch { device, pc, detail } => {
                write!(f, "{device} comm mismatch at #{pc}: {detail}")
            }
            EmuError::DeadlockSuspected {
                device,
                pc,
                instr,
                cycle,
            } => {
                write!(f, "{device} blocked at #{pc} ({instr}): deadlock suspected")?;
                if !cycle.is_empty() {
                    let chain: Vec<String> = cycle.iter().map(|d| d.to_string()).collect();
                    write!(f, " [wait chain: {}]", chain.join(" -> "))?;
                }
                Ok(())
            }
            EmuError::PeerFailed { device, pc } => {
                write!(f, "{device} at #{pc}: peer device failed")
            }
            EmuError::NoRoute { device, pc, peer } => {
                write!(f, "{device} at #{pc}: no link to {peer}")
            }
            EmuError::Fault(report) => write!(f, "injected fault: {report}"),
        }
    }
}

impl std::error::Error for EmuError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;

    #[test]
    fn oom_classification() {
        let e = EmuError::Oom {
            device: DeviceId(3),
            pc: 7,
            instr: "F0^0".into(),
            cause: OomError {
                requested: 10,
                in_use: 95,
                capacity: 100,
            },
        };
        assert!(e.is_oom());
        assert_eq!(e.device(), DeviceId(3));
        assert!(e.to_string().contains("OOM"));
        let d = EmuError::DeadlockSuspected {
            device: DeviceId(0),
            pc: 0,
            instr: "RA0^0<d1".into(),
            cycle: vec![],
        };
        assert!(!d.is_oom());
    }

    #[test]
    fn deadlock_display_names_the_wait_chain() {
        let d = EmuError::DeadlockSuspected {
            device: DeviceId(0),
            pc: 4,
            instr: "RA1^0<d1".into(),
            cycle: vec![DeviceId(0), DeviceId(1), DeviceId(0)],
        };
        let s = d.to_string();
        assert!(s.contains("wait chain"), "{s}");
        assert!(s.contains("d0 -> d1 -> d0"), "{s}");
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
        assert!(e.priority() < EmuError::PeerFailed { device: DeviceId(0), pc: 0 }.priority());
        assert!(e.to_string().contains("crash"), "{e}");
    }
}
