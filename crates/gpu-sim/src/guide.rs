//! # Writing kernels against the simulator — a guided tour
//!
//! This module contains no code, only documentation with runnable
//! examples (they execute as doctests). It is the orientation a kernel
//! author needs before adding a new algorithm to this workspace.
//!
//! ## 1. The execution model
//!
//! A kernel is a closure run once per block. Inside it, each call to
//! [`crate::BlockCtx::threads`] is one barrier-separated phase: the
//! closure runs for every `tid`, and an implicit `__syncthreads()`
//! follows. Real data moves through [`crate::GlobalView`]s; simulated
//! cycles accrue through the `charge_*` calls.
//!
//! ```
//! use gpu_sim::{AccessPattern, DeviceSpec, Gpu, LaunchConfig};
//!
//! let mut gpu = Gpu::new(DeviceSpec::test_device());
//! let buf = gpu.htod_copy(&[5u32, 1, 4, 2, 3, 0, 7, 6]).unwrap();
//! let view = buf.view();
//!
//! // A two-phase kernel: phase 1 finds the block's max, phase 2
//! // subtracts it from every element (all in one 8-thread block).
//! let stats = gpu
//!     .launch("normalize", LaunchConfig::grid(1, 8), |block| {
//!         let mut maxv = 0u32;
//!         block.threads(|t| {
//!             t.charge_global(1, 4, AccessPattern::Coalesced);
//!             t.charge_alu(1);
//!             maxv = maxv.max(view.get(t.global_idx())); // host-side fold = the
//!                                                        // shared-memory reduction
//!             t.charge_shared(2);
//!         });
//!         block.threads(|t| {
//!             let i = t.global_idx();
//!             t.charge_global(2, 4, AccessPattern::Coalesced);
//!             view.set(i, maxv - view.get(i));
//!         });
//!     })
//!     .unwrap();
//!
//! let mut buf = buf;
//! assert_eq!(buf.to_host_vec(), vec![2, 6, 3, 5, 4, 7, 0, 1]);
//! assert_eq!(stats.counters.syncs, 2, "two phases, two barriers");
//! assert!(stats.cycles > 0);
//! ```
//!
//! ## 2. Charge what the hardware would do
//!
//! The golden rule: **real data movement and charged cycles are separate
//! ledgers**, and you are responsible for keeping them honest. Pick the
//! [`crate::AccessPattern`] that matches how a *warp* of the real kernel
//! would touch memory:
//!
//! * consecutive `tid` → consecutive addresses: `Coalesced`;
//! * everyone reads the same address: `Broadcast`;
//! * per-thread private regions: `Scattered` (or `Strided(k)` if the
//!   regions interleave);
//! * a single worker walking sequentially: `SingleLaneSequential`.
//!
//! When the per-element work is data-dependent (a sort, a search), run
//! the real primitive and charge its reported work — see how
//! `array-sort`'s Phase 3 charges `insertion_sort`'s exact
//! comparison/move counts.
//!
//! When every thread of a phase charges the same, whatever its `tid` or
//! the data, do the block's real work in the kernel body and bill the
//! phase with [`crate::BlockCtx::uniform`]: one charge call, the same
//! bill as `threads`. `thrust-sim`'s radix kernels are written this way.
//!
//! ## 3. The aliasing discipline
//!
//! [`crate::GlobalView`] is CUDA's memory model, not Rust's: within one
//! launch every element may be written by at most one thread, and nobody
//! may read what another thread writes (atomics excepted). Blocks that
//! own disjoint slices can take `unsafe { view.slice_mut(start, len) }`
//! — the `unsafe` block is the audit point, and every shipped kernel
//! documents its disjointness argument right there.
//!
//! ## 4. Capacity is part of the model
//!
//! Allocation failures are real results here, not bugs:
//!
//! ```
//! use gpu_sim::{DeviceSpec, Gpu, SimError};
//!
//! let gpu = Gpu::new(DeviceSpec::test_device()); // 60 MiB usable
//! let err = gpu.alloc::<f32>(20_000_000).unwrap_err(); // 80 MB
//! assert!(matches!(err, SimError::OutOfMemory { .. }));
//! ```
//!
//! Declare per-block shared memory in the [`crate::LaunchConfig`] — the
//! launch is rejected if the device can't host it, and the occupancy
//! model reads it:
//!
//! ```
//! use gpu_sim::{occupancy, DeviceSpec, KernelResources};
//!
//! let spec = DeviceSpec::tesla_k40c();
//! let occ = occupancy(&spec, &KernelResources::new(256, 24 * 1024));
//! assert_eq!(occ.resident_blocks, 2, "two 24 KB blocks fill 48 KB of shared");
//! ```
//!
//! ## 5. Streams when you need overlap
//!
//! ```
//! use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};
//!
//! let mut gpu = Gpu::new(DeviceSpec::test_device());
//! let s1 = gpu.create_stream();
//! let s2 = gpu.create_stream();
//!
//! gpu.set_stream(Some(s1));
//! let a = gpu.htod_copy(&vec![1.0f32; 1 << 20]).unwrap();
//! gpu.launch("work_a", LaunchConfig::grid(64, 64), |b| {
//!     b.threads(|t| t.charge_alu(10_000));
//! })
//! .unwrap();
//!
//! gpu.set_stream(Some(s2));
//! let _b = gpu.htod_copy(&vec![2.0f32; 1 << 20]).unwrap(); // overlaps work_a
//!
//! gpu.set_stream(None); // synchronize back to the default stream
//! assert!(gpu.async_events().len() >= 3);
//! drop(a);
//! ```
//!
//! ## 6. Validate the model, not just the output
//!
//! `tests/model_validation.rs` in the workspace root replays each
//! kernel's address patterns through [`crate::coalescing`] and
//! [`crate::banks`] and asserts the declared charges don't undercharge.
//! New kernels should add their patterns there.
