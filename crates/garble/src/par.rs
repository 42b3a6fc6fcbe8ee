//! Shared state for level-parallel garbling and evaluation.

use std::sync::Arc;

use deepsecure_circuit::passes::{levelize, Levels};
use deepsecure_circuit::Circuit;
use workpool::ThreadPool;

/// Minimum gates per work-stealing task. An AND gate is one batched AES
/// pass (tens of ns on AES-NI, ~200 ns on the T-tables); below a handful
/// of gates the deque handoff dominates.
pub(crate) const PAR_GRAIN: usize = 16;

/// A thread pool plus the circuit's dependency levels, attached to a
/// [`crate::Garbler`] or [`crate::Evaluator`] by `with_pool`. Cheap to
/// clone (the levels are shared), which lets cycle handles detach it from
/// the borrowed state machine while a chunk is in flight.
#[derive(Debug, Clone)]
pub(crate) struct Par {
    pub pool: ThreadPool,
    pub levels: Arc<Levels>,
}

impl Par {
    /// Levelizes `circuit` for `pool`; `None` for a sequential pool, so
    /// single-threaded users never pay the levelization pass or the
    /// scheduling overhead.
    pub fn for_circuit(circuit: &Circuit, pool: ThreadPool) -> Option<Par> {
        pool.is_parallel().then(|| Par {
            pool,
            levels: Arc::new(levelize(circuit)),
        })
    }
}
