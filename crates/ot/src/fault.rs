//! Deterministic fault injection: the chaos layer behind `--chaos`.
//!
//! [`FaultChannel`] wraps any [`Channel`] and injects delays, short
//! reads/writes, and connection drops according to a schedule that is a
//! pure function of `(seed, profile, operation index)` — never of wall
//! time, payload contents, or thread interleaving. The same seed and
//! profile therefore produce the byte-identical fault schedule on every
//! run (asserted by test), which is what makes every failure mode this
//! layer can produce reproducible in CI.
//!
//! Short reads and writes split an operation into two inner operations
//! moving the same bytes, so a chaotic run that completes is
//! wire-identical to a clean one — `--check` replay stays valid under
//! chaos. Drops surface as [`ChannelError`]s with a
//! [`std::io::ErrorKind::ConnectionReset`] source, exactly what a real
//! mid-protocol disconnect produces, and poison the channel: every later
//! operation fails too, as on a closed socket.

use std::ops::Range;
use std::time::Duration;

use deepsecure_crypto::Block;

use crate::channel::{Channel, ChannelError};

/// One injected fault, for the recorded schedule (`fault_log`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation was delayed before running.
    Delay,
    /// A receive was split into two shorter receives.
    ShortRead,
    /// A send was split into two shorter sends.
    ShortWrite,
    /// The connection was dropped at this operation.
    Drop,
}

/// A schedule entry: which operation drew which fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based operation index (each send/recv is one operation).
    pub op: u64,
    /// The injected fault.
    pub kind: FaultKind,
}

/// Named chaos profile: which fault mix a [`FaultChannel`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultProfile {
    /// No faults; the channel is a transparent pass-through.
    Off,
    /// Random per-operation delays (slow-link jitter).
    Delays,
    /// Short reads and writes (partial I/O; same bytes, split ops).
    ShortOps,
    /// Rare connection drops (the retry/resumption exercise).
    Drops,
    /// Delays + short ops + drops together.
    Mixed,
}

impl FaultProfile {
    /// Parses a profile name as used by `--chaos <seed>:<profile>`.
    ///
    /// # Errors
    ///
    /// Lists the known profile names.
    pub fn parse(name: &str) -> Result<FaultProfile, String> {
        match name {
            "off" => Ok(FaultProfile::Off),
            "delays" => Ok(FaultProfile::Delays),
            "short" => Ok(FaultProfile::ShortOps),
            "drops" => Ok(FaultProfile::Drops),
            "mixed" => Ok(FaultProfile::Mixed),
            other => Err(format!(
                "unknown chaos profile {other:?} (known: off, delays, short, drops, mixed)"
            )),
        }
    }

    /// The profile's canonical name (the `--chaos` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FaultProfile::Off => "off",
            FaultProfile::Delays => "delays",
            FaultProfile::ShortOps => "short",
            FaultProfile::Drops => "drops",
            FaultProfile::Mixed => "mixed",
        }
    }

    /// The per-operation fault rates this profile injects. Rates are in
    /// units of 1/1024 (compared against 10-bit slices of one per-op
    /// draw); the drop rate is kept rare so sessions under chaos make
    /// progress between failures.
    fn params(self) -> FaultParams {
        match self {
            FaultProfile::Off => FaultParams::NONE,
            FaultProfile::Delays => FaultParams {
                delay_in_1024: 154, // ~15% of ops
                delay: Duration::from_micros(300),
                ..FaultParams::NONE
            },
            FaultProfile::ShortOps => FaultParams {
                short_in_1024: 256, // 25% of ops
                ..FaultParams::NONE
            },
            FaultProfile::Drops => FaultParams {
                drop_in_1024: 2, // ~0.2% of ops
                ..FaultParams::NONE
            },
            FaultProfile::Mixed => FaultParams {
                delay_in_1024: 102,
                delay: Duration::from_micros(200),
                short_in_1024: 154,
                drop_in_1024: 2,
            },
        }
    }
}

/// Per-operation fault rates (units of 1/1024) plus the delay length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FaultParams {
    delay_in_1024: u32,
    delay: Duration,
    short_in_1024: u32,
    drop_in_1024: u32,
}

impl FaultParams {
    const NONE: FaultParams = FaultParams {
        delay_in_1024: 0,
        delay: Duration::ZERO,
        short_in_1024: 0,
        drop_in_1024: 0,
    };

    fn is_none(&self) -> bool {
        self.delay_in_1024 == 0 && self.short_in_1024 == 0 && self.drop_in_1024 == 0
    }
}

/// A parsed `--chaos` knob: `<seed>:<profile>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Fault-schedule seed.
    pub seed: u64,
    /// Fault mix.
    pub profile: FaultProfile,
}

impl ChaosSpec {
    /// Parses `"<seed>:<profile>"` (e.g. `"7:drops"`, `"42:mixed"`).
    ///
    /// # Errors
    ///
    /// Describes the malformed part.
    pub fn parse(s: &str) -> Result<ChaosSpec, String> {
        let (seed, profile) = s
            .split_once(':')
            .ok_or_else(|| format!("chaos spec {s:?} is not <seed>:<profile>"))?;
        Ok(ChaosSpec {
            seed: seed
                .parse()
                .map_err(|_| format!("bad chaos seed {seed:?} in {s:?}"))?,
            profile: FaultProfile::parse(profile)?,
        })
    }
}

impl std::fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.seed, self.profile.name())
    }
}

/// How many schedule entries [`FaultChannel::fault_log`] retains; long
/// chaotic load runs keep running, they just stop recording.
const LOG_CAP: usize = 4096;

/// A fault-injecting wrapper around any [`Channel`].
///
/// Byte counters delegate to the wrapped channel exactly: an injected
/// short read moves the same bytes in two inner operations, so a chaotic
/// run that completes reports the same wire totals as a clean one.
pub struct FaultChannel<C> {
    inner: C,
    params: FaultParams,
    rng: u64,
    op: u64,
    /// A scripted drop at exactly this operation index (tests pin drops
    /// to specific protocol phases with it); random drops come from
    /// `params` instead.
    drop_at: Option<u64>,
    dropped: bool,
    log: Vec<FaultEvent>,
}

impl<C> std::fmt::Debug for FaultChannel<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultChannel")
            .field("op", &self.op)
            .field("dropped", &self.dropped)
            .field("faults", &self.log.len())
            .finish_non_exhaustive()
    }
}

impl<C: Channel> FaultChannel<C> {
    /// Wraps `inner` with the spec's fault schedule.
    pub fn new(inner: C, spec: ChaosSpec) -> FaultChannel<C> {
        FaultChannel {
            inner,
            params: spec.profile.params(),
            rng: spec.seed,
            op: 0,
            drop_at: None,
            dropped: false,
            log: Vec::new(),
        }
    }

    /// A pass-through wrapper injecting nothing — lets callers keep one
    /// concrete channel type whether chaos is on or off.
    pub fn transparent(inner: C) -> FaultChannel<C> {
        FaultChannel::new(
            inner,
            ChaosSpec {
                seed: 0,
                profile: FaultProfile::Off,
            },
        )
    }

    /// Whether this wrapper can inject anything at all.
    pub fn is_transparent(&self) -> bool {
        self.params.is_none() && self.drop_at.is_none()
    }

    /// Operations (sends + receives) performed so far — the schedule's
    /// clock, which [`FaultChannel::set_drop_at`] indices refer to.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Scripts a connection drop at exactly operation `op` (in addition
    /// to any profile-driven faults) — how tests pin a drop to a chosen
    /// protocol phase.
    pub fn set_drop_at(&mut self, op: u64) {
        self.drop_at = Some(op);
    }

    /// The recorded fault schedule (capped at an internal limit).
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// The wrapped channel, mutably (e.g. to set socket timeouts).
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Unwraps the channel.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn note(&mut self, kind: FaultKind) {
        if self.log.len() < LOG_CAP {
            self.log.push(FaultEvent { op: self.op, kind });
        }
    }

    /// Runs the pre-operation schedule: maybe delay, maybe drop, and
    /// decide whether to split the operation. Draws exactly one value per
    /// operation so the schedule depends only on the operation index.
    fn pre_op(&mut self, short_kind: FaultKind) -> Result<bool, ChannelError> {
        if self.dropped {
            return Err(ChannelError::io(
                format!("chaos: operation {} on a dropped connection", self.op),
                std::io::Error::new(std::io::ErrorKind::BrokenPipe, "chaos drop"),
            ));
        }
        if self.is_transparent() {
            return Ok(false);
        }
        let draw = crate::splitmix64(&mut self.rng);
        let scripted = self.drop_at == Some(self.op);
        if scripted || (draw & 1023) < u64::from(self.params.drop_in_1024) {
            self.note(FaultKind::Drop);
            self.dropped = true;
            let op = self.op;
            self.op += 1;
            return Err(ChannelError::io(
                format!("chaos: injected connection drop at operation {op}"),
                std::io::Error::new(std::io::ErrorKind::ConnectionReset, "chaos drop"),
            ));
        }
        if ((draw >> 10) & 1023) < u64::from(self.params.delay_in_1024) {
            self.note(FaultKind::Delay);
            std::thread::sleep(self.params.delay);
        }
        let split = ((draw >> 20) & 1023) < u64::from(self.params.short_in_1024);
        if split {
            self.note(short_kind);
        }
        // The split point reuses bits of the same draw, keeping one draw
        // per operation.
        Ok(split)
    }

    /// The split point for a short operation on `n` bytes: in `1..n`,
    /// derived from the per-op draw stream.
    fn split_point(&mut self, n: usize) -> usize {
        1 + (crate::splitmix64(&mut self.rng) as usize) % (n - 1)
    }
}

impl<C: Channel> FaultChannel<C> {
    /// One operation on the schedule's clock, moving `n` units (bytes or
    /// blocks): `io` transfers a sub-range of them on the wrapped channel,
    /// and a short operation calls it twice.
    fn scheduled(
        &mut self,
        short_kind: FaultKind,
        n: usize,
        mut io: impl FnMut(&mut C, Range<usize>) -> Result<(), ChannelError>,
    ) -> Result<(), ChannelError> {
        let split = self.pre_op(short_kind)?;
        if split && n >= 2 {
            let k = self.split_point(n);
            io(&mut self.inner, 0..k)?;
            io(&mut self.inner, k..n)?;
        } else {
            io(&mut self.inner, 0..n)?;
        }
        self.op += 1;
        Ok(())
    }
}

impl<C: Channel> Channel for FaultChannel<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.scheduled(FaultKind::ShortWrite, data.len(), |c, r| c.send(&data[r]))
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        let mut out = Vec::with_capacity(n);
        self.scheduled(FaultKind::ShortRead, n, |c, r| {
            out.extend(c.recv(r.len())?);
            Ok(())
        })?;
        Ok(out)
    }

    // A block transfer is one operation on the schedule's clock however
    // many staging-buffer passes move it underneath: fault rates are per
    // protocol message, not per staging pass.
    fn send_blocks(&mut self, blocks: &[Block]) -> Result<(), ChannelError> {
        self.scheduled(FaultKind::ShortWrite, blocks.len(), |c, r| {
            c.send_blocks(&blocks[r])
        })
    }

    fn recv_blocks_into(&mut self, out: &mut Vec<Block>, n: usize) -> Result<(), ChannelError> {
        self.scheduled(FaultKind::ShortRead, n, |c, r| {
            c.recv_blocks_into(out, r.len())
        })
    }

    fn flush(&mut self) -> Result<(), ChannelError> {
        if self.dropped {
            return Err(ChannelError::io(
                "chaos: flush on a dropped connection".to_string(),
                std::io::Error::new(std::io::ErrorKind::BrokenPipe, "chaos drop"),
            ));
        }
        self.inner.flush()
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

#[cfg(test)]
mod tests {
    use crate::channel::mem_pair;

    use super::*;

    fn spec(seed: u64, profile: FaultProfile) -> ChaosSpec {
        ChaosSpec { seed, profile }
    }

    /// Drives `ops` send/recv rounds through a fault channel against a
    /// plain peer and returns the recorded schedule.
    fn run_schedule(seed: u64, profile: FaultProfile, ops: usize) -> Vec<FaultEvent> {
        let (a, mut b) = mem_pair();
        let mut chaotic = FaultChannel::new(a, spec(seed, profile));
        for i in 0..ops {
            let payload = vec![i as u8; 16 + i % 7];
            if chaotic.send(&payload).is_err() {
                break;
            }
            if b.recv(payload.len()).is_err() {
                break;
            }
            if b.send(&payload).is_err() {
                break;
            }
            if chaotic.recv(payload.len()).is_err() {
                break;
            }
        }
        chaotic.fault_log().to_vec()
    }

    #[test]
    fn same_seed_and_profile_yield_byte_identical_schedules() {
        for profile in [
            FaultProfile::Delays,
            FaultProfile::ShortOps,
            FaultProfile::Drops,
            FaultProfile::Mixed,
        ] {
            let a = run_schedule(42, profile, 400);
            let b = run_schedule(42, profile, 400);
            assert_eq!(a, b, "profile {profile:?} schedule must be deterministic");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_schedule(1, FaultProfile::Mixed, 400);
        let b = run_schedule(2, FaultProfile::Mixed, 400);
        assert_ne!(a, b, "distinct seeds should produce distinct schedules");
    }

    #[test]
    fn short_ops_move_identical_bytes() {
        // A profile of pure short reads/writes must deliver exactly the
        // clean byte stream with exact counters.
        let (a, mut b) = mem_pair();
        let mut chaotic = FaultChannel::new(a, spec(9, FaultProfile::ShortOps));
        let mut sent_total = Vec::new();
        for i in 0..200u32 {
            let payload: Vec<u8> = (0..32).map(|j| (i + j) as u8).collect();
            chaotic.send(&payload).unwrap();
            sent_total.extend_from_slice(&payload);
        }
        let got = b.recv(sent_total.len()).unwrap();
        assert_eq!(got, sent_total);
        assert_eq!(chaotic.bytes_sent(), sent_total.len() as u64);
        assert!(
            chaotic
                .fault_log()
                .iter()
                .any(|f| f.kind == FaultKind::ShortWrite),
            "200 ops at 25% short rate must split at least once"
        );
    }

    #[test]
    fn drops_poison_the_channel() {
        let (a, _b) = mem_pair();
        let mut chaotic = FaultChannel::new(a, spec(0, FaultProfile::Off));
        chaotic.set_drop_at(1);
        chaotic.send(b"ok").unwrap();
        let err = chaotic.send(b"dropped").unwrap_err();
        assert!(
            err.to_string().contains("injected connection drop"),
            "{err}"
        );
        let source = std::error::Error::source(&err).unwrap();
        assert!(source.to_string().contains("chaos drop"));
        // Poisoned: every later operation fails like a closed socket.
        assert!(chaotic.send(b"later").is_err());
        assert!(chaotic.recv(1).is_err());
        assert!(chaotic.flush().is_err());
        assert_eq!(
            chaotic.fault_log(),
            &[FaultEvent {
                op: 1,
                kind: FaultKind::Drop
            }]
        );
    }

    #[test]
    fn transparent_wrapper_is_a_pass_through() {
        let (a, mut b) = mem_pair();
        let mut chan = FaultChannel::transparent(a);
        assert!(chan.is_transparent());
        chan.send(b"hello").unwrap();
        assert_eq!(b.recv(5).unwrap(), b"hello");
        assert!(chan.fault_log().is_empty());
        assert_eq!(chan.bytes_sent(), 5);
    }

    #[test]
    fn chaos_spec_parses_and_round_trips() {
        let s = ChaosSpec::parse("42:mixed").unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.profile, FaultProfile::Mixed);
        assert_eq!(s.to_string(), "42:mixed");
        assert!(ChaosSpec::parse("nope").is_err());
        assert!(ChaosSpec::parse("x:mixed").is_err());
        assert!(ChaosSpec::parse("3:tornado").unwrap_err().contains("known"));
    }
}
