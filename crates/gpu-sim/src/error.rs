//! Error types for the simulator.

use std::fmt;

/// Errors surfaced by the simulator. Capacity errors are first-class because
/// the paper's Table 1 (data-handling capacity) is produced by driving each
/// algorithm into `OutOfMemory`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A device allocation did not fit in the remaining global memory.
    OutOfMemory {
        /// Bytes the allocation asked for.
        requested: u64,
        /// Bytes still available on the device.
        available: u64,
    },
    /// A kernel declared more shared memory per block than the device has.
    SharedMemOverflow {
        /// Bytes the kernel wants per block.
        requested: u32,
        /// Shared-memory capacity of one block.
        available: u32,
    },
    /// The launch configuration violates a device limit.
    InvalidLaunch {
        /// Human-readable reason (e.g. block dim over the device max).
        reason: String,
    },
    /// A host↔device copy's length did not match the destination extent.
    TransferSizeMismatch {
        /// Elements in the source.
        src_len: usize,
        /// Elements in the destination.
        dst_len: usize,
    },
    /// A fault injected by an active [`crate::faults::FaultPlan`] (chaos
    /// testing). The only error in the taxonomy that can be *transient*:
    /// the operation hit simulated bad luck, not a deterministic limit,
    /// so reissuing it can succeed — except
    /// [`crate::faults::FaultKind::DeviceDeath`], which is permanent
    /// (the device is gone; retrying there can never work).
    InjectedFault {
        /// What kind of fault fired.
        kind: crate::faults::FaultKind,
        /// The operation it hit (a kernel name, `"htod"`, `"dtoh"`,
        /// `"alloc"` or `"htod_copy"`).
        op: String,
    },
}

impl SimError {
    /// Transient/fatal taxonomy: `true` when retrying the failed
    /// operation can succeed.
    ///
    /// Only [`SimError::InjectedFault`] can be transient, and only for
    /// recoverable kinds — an injected
    /// [`crate::faults::FaultKind::DeviceDeath`] is permanent. Everything
    /// else — real capacity exhaustion, launch-geometry violations, size
    /// mismatches — is a deterministic property of the request and will
    /// fail identically on every retry, so recovery layers must treat it
    /// as fatal and propagate it.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::InjectedFault { kind, .. } if !kind.is_permanent())
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} B, {available} B available"
            ),
            SimError::SharedMemOverflow {
                requested,
                available,
            } => write!(
                f,
                "shared memory overflow: kernel wants {requested} B/block, device has {available} B"
            ),
            SimError::InvalidLaunch { reason } => write!(f, "invalid launch: {reason}"),
            SimError::TransferSizeMismatch { src_len, dst_len } => write!(
                f,
                "transfer size mismatch: src has {src_len} elements, dst has {dst_len}"
            ),
            SimError::InjectedFault { kind, op } => {
                let nature = if kind.is_permanent() {
                    "permanent"
                } else {
                    "transient"
                };
                write!(f, "injected {kind} fault during `{op}` ({nature})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used across the simulator.
pub type SimResult<T> = Result<T, SimError>;

/// The shape contract every batch sorter shares: `len` elements must
/// split into one or more whole arrays of `array_len`. Returns the
/// number of arrays, or [`SimError::InvalidLaunch`] for a zero
/// `array_len`, an empty batch or a ragged tail.
pub fn check_batch_shape(len: usize, array_len: usize) -> SimResult<usize> {
    if array_len == 0 || len == 0 || !len.is_multiple_of(array_len) {
        return Err(SimError::InvalidLaunch {
            reason: format!("bad batch shape: len {len} with array_len {array_len}"),
        });
    }
    Ok(len / array_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = SimError::OutOfMemory {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("requested 100"));
        let e = SimError::SharedMemOverflow {
            requested: 50_000,
            available: 49_152,
        };
        assert!(e.to_string().contains("49152"));
        let e = SimError::InvalidLaunch {
            reason: "block_dim 2048 > 1024".into(),
        };
        assert!(e.to_string().contains("2048"));
        let e = SimError::TransferSizeMismatch {
            src_len: 3,
            dst_len: 4,
        };
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn transient_taxonomy_only_covers_injected_faults() {
        let injected = SimError::InjectedFault {
            kind: crate::faults::FaultKind::TransferAbort,
            op: "htod".into(),
        };
        assert!(injected.is_transient());
        assert!(injected.to_string().contains("transfer-abort"));
        assert!(injected.to_string().contains("transient"));
        let death = SimError::InjectedFault {
            kind: crate::faults::FaultKind::DeviceDeath,
            op: "kernel".into(),
        };
        assert!(!death.is_transient(), "device death is permanent");
        assert!(death.to_string().contains("device-death"));
        assert!(death.to_string().contains("permanent"));
        for fatal in [
            SimError::OutOfMemory {
                requested: 1,
                available: 0,
            },
            SimError::SharedMemOverflow {
                requested: 1,
                available: 0,
            },
            SimError::InvalidLaunch { reason: "x".into() },
            SimError::TransferSizeMismatch {
                src_len: 1,
                dst_len: 2,
            },
        ] {
            assert!(!fatal.is_transient(), "{fatal} must be fatal");
        }
    }

    #[test]
    fn batch_shape_check_rejects_every_malformed_shape() {
        assert_eq!(check_batch_shape(6, 2), Ok(3));
        for (len, array_len) in [(5, 0), (0, 2), (5, 2)] {
            let err = check_batch_shape(len, array_len).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidLaunch { .. }),
                "{len}/{array_len}"
            );
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            SimError::OutOfMemory {
                requested: 1,
                available: 0
            },
            SimError::OutOfMemory {
                requested: 1,
                available: 0
            }
        );
        assert_ne!(
            SimError::OutOfMemory {
                requested: 1,
                available: 0
            },
            SimError::OutOfMemory {
                requested: 2,
                available: 0
            }
        );
    }
}
