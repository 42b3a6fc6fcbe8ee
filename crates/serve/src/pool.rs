//! The precompute pool: input-independent work done before clients arrive.
//!
//! Two stocks are kept warm by a background worker thread:
//!
//! * **Base-OT precomputations** ([`SenderPrecomp`]) — the IKNP-sender
//!   keypairs (128 Ristretto255 scalar multiplications),
//!   model-independent, one consumed per new session's setup.
//! * **Garbled material** ([`GarbledMaterial`]) — per hosted model, one
//!   consumed per request; keeping `target` instances per model means a
//!   request's critical path never garbles.
//!
//! `take_*` never blocks on the worker: on a miss (burst deeper than the
//! stock) the caller generates inline and the miss is counted — the pool
//! degrades to the unpooled behaviour instead of queueing latency. Hits
//! and misses are reported through [`PoolStats`], which is how tests and
//! the serving stats prove the pool actually carried the load.
//!
//! # Chunk-aware material
//!
//! Pinning whole [`GarbledMaterial`] instances costs O(circuit) memory
//! *per pooled slot* — fine for tiny models (14 MB), ruinous at MNIST
//! scale (≈163 MB × target × models). Models whose per-instance table
//! bytes exceed `material_cap_bytes` are therefore **not** stockpiled:
//! [`PrecomputePool::take_material`] hands back a
//! [`MaterialSource::Live`] seed instead, and the session garbles chunk
//! runs *while streaming* — O(chunk) resident, with the garbling cost
//! overlapped with the table transfer rather than precomputed. Small
//! models keep the classic offline/online split.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deepsecure_core::compile::Compiled;
use deepsecure_core::session::{GarbledMaterial, MaterialSource};
use deepsecure_ot::{Ristretto255, SenderPrecomp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::lock;

/// Default `material_cap_bytes`: per-instance garbled material above 64
/// MiB is streamed live instead of pooled (tiny models sit comfortably
/// below, `mnist_mlp`'s ≈163 MB well above).
pub const DEFAULT_MATERIAL_CAP: u64 = 64 << 20;

/// Hit/miss and production counters of the pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Sessions that found a precomputed base-OT stock item.
    pub base_hits: u64,
    /// Sessions that had to generate base-OT material inline.
    pub base_misses: u64,
    /// Requests that found pre-garbled material.
    pub material_hits: u64,
    /// Requests that had to garble inline.
    pub material_misses: u64,
    /// Requests served a live-garbling seed (model above the material
    /// cap: tables garbled while streaming, never resident in the pool).
    pub live_takes: u64,
    /// Items the background worker produced (both kinds).
    pub produced: u64,
}

/// One hosted model's material queue.
struct ModelSlot {
    compiled: Arc<Compiled>,
    cycles: usize,
    /// Whether this model's material is small enough to stockpile whole;
    /// above the cap the slot only ever hands out live seeds.
    precompute: bool,
    ready: VecDeque<GarbledMaterial>,
    /// Items currently being generated by fill workers. Deficits count
    /// `ready + in_flight`, so N workers never overshoot the target.
    in_flight: usize,
}

struct State {
    base: VecDeque<SenderPrecomp>,
    /// Base-OT items currently being generated by fill workers.
    base_in_flight: usize,
    models: HashMap<String, ModelSlot>,
    stats: PoolStats,
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on take (work for the producer) and on produce (progress
    /// for `wait_warm`) and on stop.
    work: Condvar,
    target: usize,
    /// Fan-out width of the base-OT scalar multiplications of an inline
    /// miss in [`PrecomputePool::take_base`].
    keygen_threads: usize,
    /// Per-item seed counter: every generated instance gets a distinct
    /// RNG stream derived from the pool seed.
    seed_counter: AtomicU64,
    seed: u64,
}

impl Shared {
    /// The next seed off the shared counter. Every garbling RNG stream —
    /// pooled material and live-streaming seeds alike — MUST come through
    /// here: wire labels are one-time pads, and distinctness rests on this
    /// single injective derivation over one counter.
    fn next_seed(&self) -> u64 {
        let n = self.seed_counter.fetch_add(1, Ordering::Relaxed);
        self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn next_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.next_seed())
    }
}

/// What the worker found to refill next.
enum Job {
    Base,
    Material {
        model: String,
        compiled: Arc<Compiled>,
        cycles: usize,
    },
}

/// The background precompute pool. Stops (and joins every fill worker)
/// on drop.
pub struct PrecomputePool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for PrecomputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecomputePool")
            .field("target", &self.shared.target)
            .finish_non_exhaustive()
    }
}

impl PrecomputePool {
    /// Starts the pool and its `fill_workers` fill threads (`0` = one per
    /// core, [`deepsecure_ot::resolve_threads`]). `models` maps
    /// a name to its compiled circuit and per-run cycle count; `target` is
    /// the stock level kept per queue (base stock and each model's
    /// material stock); models whose per-instance table bytes exceed
    /// `material_cap_bytes` are served as live-garbling seeds instead of
    /// pooled material ([`DEFAULT_MATERIAL_CAP`] is the conventional cap).
    ///
    /// In-flight items count against each queue's deficit, so N workers
    /// never overshoot `target`. Fill workers parallelize *across* items
    /// (each garbles sequentially); an inline base-OT **miss** — a caller
    /// alone on its critical path — instead fans its scalar
    /// multiplications across `fill_workers` workers.
    pub fn start(
        models: Vec<(String, Arc<Compiled>, usize)>,
        target: usize,
        seed: u64,
        material_cap_bytes: u64,
        fill_workers: usize,
    ) -> PrecomputePool {
        let fill_workers = deepsecure_ot::resolve_threads(fill_workers);
        let state = State {
            base: VecDeque::new(),
            base_in_flight: 0,
            models: models
                .into_iter()
                .map(|(name, compiled, cycles)| {
                    let table_bytes = compiled.circuit.table_bytes() * cycles as u64;
                    (
                        name,
                        ModelSlot {
                            precompute: table_bytes <= material_cap_bytes,
                            compiled,
                            cycles,
                            ready: VecDeque::new(),
                            in_flight: 0,
                        },
                    )
                })
                .collect(),
            stats: PoolStats::default(),
            stop: false,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work: Condvar::new(),
            target,
            keygen_threads: fill_workers,
            seed_counter: AtomicU64::new(1),
            seed,
        });
        let workers = (0..fill_workers)
            .map(|_| {
                let worker_shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&worker_shared))
            })
            .collect();
        PrecomputePool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Takes base-OT precompute for one new session (inline generation on
    /// a miss — never blocks on the worker).
    pub fn take_base(&self) -> SenderPrecomp {
        {
            let mut st = lock(&self.shared.state);
            if let Some(pre) = st.base.pop_front() {
                st.stats.base_hits += 1;
                self.shared.work.notify_all();
                return pre;
            }
            st.stats.base_misses += 1;
        }
        SenderPrecomp::generate(
            &Ristretto255,
            &mut self.shared.next_rng(),
            self.shared.keygen_threads,
        )
    }

    /// Takes garbled material for one request of `model`: pooled material
    /// for models under the cap (inline garbling on a miss), a
    /// [`MaterialSource::Live`] seed for models above it. Returns `None`
    /// for a model the pool does not host.
    pub fn take_material(&self, model: &str) -> Option<MaterialSource> {
        let (compiled, cycles) = {
            let mut st = lock(&self.shared.state);
            let slot = st.models.get_mut(model)?;
            if !slot.precompute {
                let n_cycles = slot.cycles;
                st.stats.live_takes += 1;
                return Some(MaterialSource::Live {
                    n_cycles,
                    seed: self.shared.next_seed(),
                });
            }
            if let Some(m) = slot.ready.pop_front() {
                st.stats.material_hits += 1;
                self.shared.work.notify_all();
                return Some(MaterialSource::Precomputed(m));
            }
            let pair = (Arc::clone(&slot.compiled), slot.cycles);
            st.stats.material_misses += 1;
            pair
        };
        // A miss garbles on whichever session thread hit it: there is no
        // array to carry over, so this one is allocated and dropped.
        Some(MaterialSource::Precomputed(GarbledMaterial::garble(
            &compiled,
            cycles,
            &mut self.shared.next_rng(),
        )))
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        lock(&self.shared.state).stats
    }

    /// Whether `model` is served by live garbling (its per-instance
    /// material exceeds the pool's cap, so `take_material` only ever
    /// hands out seeds); `None` for a model the pool does not host. The
    /// admission layer uses this to bound concurrent live-garble
    /// sessions, which have no pooled stock to absorb bursts.
    pub fn is_live(&self, model: &str) -> Option<bool> {
        lock(&self.shared.state)
            .models
            .get(model)
            .map(|slot| !slot.precompute)
    }

    /// Current stock depths: `(base, per-model ready)` — what the
    /// `/metrics` endpoint exposes as pool-depth gauges. Live-streaming
    /// slots (above the material cap) report a depth of 0 by design.
    pub fn depths(&self) -> (usize, Vec<(String, usize)>) {
        let st = lock(&self.shared.state);
        let mut models: Vec<(String, usize)> = st
            .models
            .iter()
            .map(|(name, slot)| (name.clone(), slot.ready.len()))
            .collect();
        models.sort();
        (st.base.len(), models)
    }

    /// Blocks until every queue is at target (or `timeout` passes);
    /// returns whether the pool is warm. Benchmarks and tests use this to
    /// measure the pooled regime, not the warm-up transient.
    pub fn wait_warm(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            // Live-mode slots (above the material cap) stock nothing.
            let warm = st.base.len() >= self.shared.target
                && st
                    .models
                    .values()
                    .all(|slot| !slot.precompute || slot.ready.len() >= self.shared.target);
            if warm {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .work
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Stops every fill worker and joins them **all** before returning —
    /// a mid-fill item completes (its thread checks the flag only between
    /// jobs) and is dropped with the pool, never leaked into a stopped
    /// queue's afterlife. Idempotent; also run by drop, where the
    /// join-before-teardown ordering is what keeps `take_*` callers on
    /// other threads from racing a half-destroyed pool.
    pub fn stop(&self) {
        {
            let mut st = lock(&self.shared.state);
            st.stop = true;
        }
        self.shared.work.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for PrecomputePool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Shared) {
    // This worker's wire-label array, recycled across every material it
    // garbles (of any hosted model): resident cost is `wire_count × 16`
    // bytes of the largest pooled circuit, per fill worker.
    let mut labels = Vec::new();
    loop {
        // Claim one deficit under the lock (bumping the queue's in-flight
        // count so concurrent workers see the claim)…
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.stop {
                    return;
                }
                if st.base.len() + st.base_in_flight < shared.target {
                    st.base_in_flight += 1;
                    break Job::Base;
                }
                if let Some((name, slot)) = st.models.iter_mut().find(|(_, slot)| {
                    slot.precompute && slot.ready.len() + slot.in_flight < shared.target
                }) {
                    slot.in_flight += 1;
                    break Job::Material {
                        model: name.clone(),
                        compiled: Arc::clone(&slot.compiled),
                        cycles: slot.cycles,
                    };
                }
                // Fully stocked (or claimed): sleep until a take makes room.
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
            }
        };
        // …generate outside it (this is the expensive part)…
        match job {
            Job::Base => {
                let pre = SenderPrecomp::generate(&Ristretto255, &mut shared.next_rng(), 1);
                let mut st = lock(&shared.state);
                st.base_in_flight -= 1;
                st.base.push_back(pre);
                st.stats.produced += 1;
            }
            Job::Material {
                model,
                compiled,
                cycles,
            } => {
                let material = GarbledMaterial::garble_with(
                    &compiled,
                    cycles,
                    &mut shared.next_rng(),
                    &mut labels,
                );
                let mut st = lock(&shared.state);
                if let Some(slot) = st.models.get_mut(&model) {
                    slot.in_flight -= 1;
                    slot.ready.push_back(material);
                    st.stats.produced += 1;
                }
            }
        }
        // …and wake anyone in `wait_warm`.
        shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use deepsecure_core::compile::{folded_mac, CompileOptions};
    use deepsecure_fixed::Format;

    use super::*;

    fn mac_compiled() -> Arc<Compiled> {
        Arc::new(Compiled {
            circuit: folded_mac(&CompileOptions::default()),
            weight_order: Vec::new(),
            format: Format::Q3_12,
        })
    }

    #[test]
    fn pool_warms_up_and_serves_hits() {
        let pool = PrecomputePool::start(
            vec![("mac".to_string(), mac_compiled(), 1)],
            2,
            99,
            DEFAULT_MATERIAL_CAP,
            1,
        );
        assert!(pool.wait_warm(Duration::from_secs(60)), "pool never warmed");
        let _base = pool.take_base();
        let material = pool.take_material("mac").expect("hosted model");
        assert_eq!(material.num_cycles(), 1);
        assert!(
            matches!(material, MaterialSource::Precomputed(_)),
            "small models stockpile whole material"
        );
        let stats = pool.stats();
        assert_eq!(stats.base_hits, 1);
        assert_eq!(stats.base_misses, 0);
        assert_eq!(stats.material_hits, 1);
        assert_eq!(stats.material_misses, 0);
        assert_eq!(stats.live_takes, 0);
        assert!(stats.produced >= 4);
        assert!(pool.take_material("unknown").is_none());
        pool.stop();
    }

    #[test]
    fn misses_generate_inline_and_are_counted() {
        // target 0: the worker never stocks anything, every take is a
        // miss, and the caller still gets usable material immediately.
        let pool = PrecomputePool::start(
            vec![("mac".to_string(), mac_compiled(), 2)],
            0,
            7,
            DEFAULT_MATERIAL_CAP,
            1,
        );
        let _base = pool.take_base();
        let m = pool.take_material("mac").unwrap();
        assert_eq!(m.num_cycles(), 2);
        let stats = pool.stats();
        assert_eq!(stats.base_misses, 1);
        assert_eq!(stats.material_misses, 1);
        assert_eq!(stats.base_hits + stats.material_hits, 0);
    }

    #[test]
    fn multiple_fill_workers_warm_the_pool_without_overshooting_target() {
        // Four workers racing to fill: in-flight claims must keep each
        // queue at exactly `target` once warm (no worker double-fills a
        // deficit another worker already claimed).
        let pool = PrecomputePool::start(
            vec![("mac".to_string(), mac_compiled(), 1)],
            3,
            21,
            DEFAULT_MATERIAL_CAP,
            4,
        );
        assert!(pool.wait_warm(Duration::from_secs(60)), "pool never warmed");
        // Let any (incorrect) overshoot production land before checking.
        std::thread::sleep(Duration::from_millis(100));
        {
            let st = lock(&pool.shared.state);
            assert_eq!(st.base.len(), 3, "base stock overshot the target");
            assert_eq!(st.models["mac"].ready.len(), 3, "material stock overshot");
            assert_eq!(st.stats.produced, 6);
        }
        let _ = pool.take_base();
        assert_eq!(pool.stats().base_hits, 1);
        pool.stop();
    }

    #[test]
    fn mid_fill_shutdown_joins_every_worker_and_leaves_takes_functional() {
        // Deliberately slow garbling (many cycles per item) so stop() is
        // requested while fills are in flight. stop must join ALL workers
        // before returning, and a stopped pool's take_* must still serve
        // inline — never wedge on a poisoned lock or a half-torn-down
        // worker set (the shutdown-ordering regression).
        let pool = PrecomputePool::start(
            vec![("mac".to_string(), mac_compiled(), 200)],
            2,
            23,
            DEFAULT_MATERIAL_CAP,
            3,
        );
        pool.stop();
        assert!(
            lock(&pool.workers).is_empty(),
            "stop must have joined and dropped every fill worker"
        );
        // in-flight counters of abandoned jobs may stay claimed — but the
        // take paths never consult them, so takes still serve inline.
        let material = pool.take_material("mac").expect("hosted model");
        assert_eq!(material.num_cycles(), 200);
        let _base = pool.take_base();
        let stats = pool.stats();
        assert_eq!(stats.base_hits + stats.base_misses, 1);
        assert_eq!(stats.material_hits + stats.material_misses, 1);
        // Idempotent: a second stop (and the eventual drop) is a no-op.
        pool.stop();
    }

    #[test]
    fn models_above_the_material_cap_stream_live_and_stock_nothing() {
        // Cap 0 pushes even the MAC core over the limit: takes hand out
        // distinct live seeds, the worker never garbles for the slot, and
        // wait_warm doesn't wait on it.
        let pool = PrecomputePool::start(vec![("mac".to_string(), mac_compiled(), 3)], 2, 13, 0, 1);
        assert!(
            pool.wait_warm(Duration::from_secs(60)),
            "a live-only slot must not block warm-up"
        );
        let a = pool.take_material("mac").unwrap();
        let b = pool.take_material("mac").unwrap();
        match (&a, &b) {
            (
                MaterialSource::Live {
                    n_cycles: na,
                    seed: sa,
                },
                MaterialSource::Live {
                    n_cycles: nb,
                    seed: sb,
                },
            ) => {
                assert_eq!((*na, *nb), (3, 3));
                assert_ne!(sa, sb, "one-time-pad labels need distinct seeds");
            }
            other => panic!("expected live sources, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.live_takes, 2);
        assert_eq!(stats.material_hits + stats.material_misses, 0);
        pool.stop();
    }
}
