//! Offline, workspace-local stand-in for the `rayon` crate.
//!
//! The planners run no intra-strategy data parallelism, so the only piece
//! of the `rayon` surface left is [`pool::configured_threads`], which the
//! benchmark (`perfbench/`) reports as the machine's core count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Thread-budget query, mirroring `rayon::current_num_threads`.
pub mod pool {
    /// The machine's available parallelism (1 when it cannot be determined).
    pub fn configured_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}
