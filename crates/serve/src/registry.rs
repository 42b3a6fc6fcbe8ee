//! The session registry: per-session IDs and the models they pinned.
//!
//! Every accepted connection registers before its handshake reply (the
//! ID is what the `OK` frame carries) and deregisters when its handler
//! returns — on success *and* on failure, via a guard. Admission control
//! counts sessions per model here, `RESUME` claims check an ID is no
//! longer live, and graceful shutdown reads `active()` to know when the
//! drain is complete.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Locks with poison recovery: a panicking session handler must not wedge
/// registration for every later connection — the map holds plain data, so
/// the worst a panicked writer leaves behind is a stale entry the drain
/// logic already tolerates.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Registry of live sessions: server-assigned ID → pinned model.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    active: Mutex<HashMap<u64, String>>,
}

impl SessionRegistry {
    /// An empty registry; IDs start at 1.
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            next_id: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a new session and returns its ID.
    pub fn register(&self, model: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        lock(&self.active).insert(id, model.to_string());
        id
    }

    /// Re-registers a resumed session under its original ID. Returns
    /// `false` (and registers nothing) if the ID is still live — a
    /// duplicate resume claim must not hijack a session that never went
    /// away.
    pub fn register_resumed(&self, id: u64, model: &str) -> bool {
        let mut active = lock(&self.active);
        if active.contains_key(&id) {
            return false;
        }
        active.insert(id, model.to_string());
        true
    }

    /// Whether `id` is currently registered.
    pub fn is_live(&self, id: u64) -> bool {
        lock(&self.active).contains_key(&id)
    }

    /// Number of live sessions pinned to `model` — the admission-limit
    /// denominator.
    pub fn active_for_model(&self, model: &str) -> usize {
        lock(&self.active).values().filter(|m| *m == model).count()
    }

    /// Removes a session; returns its model if it was registered.
    pub fn deregister(&self, id: u64) -> Option<String> {
        lock(&self.active).remove(&id)
    }

    /// Number of live sessions.
    pub fn active(&self) -> usize {
        lock(&self.active).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lifecycle_tracks() {
        let reg = SessionRegistry::new();
        let a = reg.register("tiny_mlp");
        let b = reg.register("tiny_cnn");
        assert_ne!(a, b);
        assert_eq!(reg.active(), 2);
        assert!(reg.is_live(a));
        assert_eq!(reg.deregister(a).as_deref(), Some("tiny_mlp"));
        assert!(!reg.is_live(a));
        assert_eq!(reg.active(), 1);
        assert!(reg.deregister(a).is_none(), "double deregister is a no-op");
    }

    #[test]
    fn resume_reuses_the_id_and_counts_per_model() {
        let reg = SessionRegistry::new();
        let a = reg.register("tiny_mlp");
        let _b = reg.register("tiny_mlp");
        assert_eq!(reg.active_for_model("tiny_mlp"), 2);
        assert_eq!(reg.active_for_model("tiny_cnn"), 0);
        // A resume claim against a still-live id must be refused.
        assert!(!reg.register_resumed(a, "tiny_mlp"));
        reg.deregister(a);
        assert!(reg.register_resumed(a, "tiny_mlp"));
        assert!(reg.is_live(a));
        assert_eq!(reg.active_for_model("tiny_mlp"), 2);
        // Fresh ids never collide with a resumed one.
        let c = reg.register("tiny_cnn");
        assert!(c > a);
    }
}
