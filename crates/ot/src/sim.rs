//! In-process network condition modelling: wrap any [`Channel`] with a
//! configurable latency/bandwidth [`NetModel`] and the protocol pays
//! realistic wall-clock costs without leaving the process — the LAN/WAN
//! rows of the paper-style benchmarks come from this wrapper over
//! `mem_pair`, with no flaky external traffic shaping.
//!
//! # Pacing model
//!
//! Serialization time is charged against a wall-clock **link horizon**
//! (`busy_until`), the instant this endpoint's outbound link finishes
//! draining everything queued so far: each `send` pushes the horizon out
//! by `bytes × 8 / rate` and returns immediately, like a real socket
//! handing bytes to the kernel while the NIC drains asynchronously. The
//! sender only blocks when the horizon matters — on `flush`, and before a
//! *turnaround* receive (a receive that follows this endpoint's sends,
//! whose answer cannot exist until the peer saw those bytes). Compute
//! between sends therefore genuinely overlaps serialization, which is
//! exactly the effect table streaming exploits.
//!
//! Latency is charged **once per turnaround**, never per `send`: a burst
//! of chunked sends in one direction costs one propagation delay at the
//! next turnaround, not a fabricated round trip per chunk (regression
//! test below).

use std::time::{Duration, Instant};

use crate::channel::{Channel, ChannelError};

/// A symmetric link model applied by [`SimChannel`].
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    /// One-way propagation delay, paid once per turnaround (each receive
    /// that follows this endpoint's sends waits for the peer's message to
    /// travel; back-to-back receives are assumed pipelined).
    pub latency: Duration,
    /// Link rate in bits/second; `None` models an infinitely fast link.
    /// Serialization time (`bytes * 8 / rate`) is charged to the sender's
    /// link horizon (see the module docs).
    pub bits_per_second: Option<u64>,
}

impl NetModel {
    /// An ideal link: no latency, infinite bandwidth (wrapper overhead
    /// only — useful for counter tests).
    pub fn ideal() -> NetModel {
        NetModel {
            latency: Duration::ZERO,
            bits_per_second: None,
        }
    }

    /// The conventional LAN setting: 1 Gbps, 1 ms one-way.
    pub fn lan() -> NetModel {
        NetModel {
            latency: Duration::from_millis(1),
            bits_per_second: Some(1_000_000_000),
        }
    }

    /// The conventional WAN setting: 40 Mbps, 40 ms one-way.
    pub fn wan() -> NetModel {
        NetModel {
            latency: Duration::from_millis(40),
            bits_per_second: Some(40_000_000),
        }
    }

    /// Time to push `bytes` through the link at the modelled rate.
    pub fn serialization_time(&self, bytes: u64) -> Duration {
        match self.bits_per_second {
            Some(bps) => Duration::from_secs_f64(bytes as f64 * 8.0 / bps as f64),
            None => Duration::ZERO,
        }
    }
}

/// Wraps a channel, sleeping to model the [`NetModel`]'s costs.
///
/// Byte counters delegate to the wrapped channel *exactly* — simulation
/// changes when bytes move, never how many.
#[derive(Debug)]
pub struct SimChannel<C: Channel> {
    inner: C,
    model: NetModel,
    /// When this endpoint's outbound link finishes draining everything
    /// sent so far (`None` = nothing in flight).
    busy_until: Option<Instant>,
    /// Whether the next receive is a turnaround (pays one latency).
    turnaround: bool,
    /// Turnarounds paid so far (latency charges; see [`SimChannel::turnarounds`]).
    turnarounds: u64,
}

impl<C: Channel> SimChannel<C> {
    /// Wraps `inner`. Wrap *both* endpoints of a pair so each direction
    /// pays its own costs.
    pub fn new(inner: C, model: NetModel) -> SimChannel<C> {
        SimChannel {
            inner,
            model,
            busy_until: None,
            // The session's first receive waits on a message that had to
            // travel the link.
            turnaround: true,
            turnarounds: 0,
        }
    }

    /// Number of turnarounds this endpoint has paid: receives that
    /// followed this endpoint's sends (or the very first receive), each
    /// charged one propagation latency. This is the direction-change count
    /// of the conversation as seen from this end — e.g. the batched base
    /// OT's two constant flights cost each endpoint exactly one turnaround
    /// (its one receive) however many OTs are in the batch.
    pub fn turnarounds(&self) -> u64 {
        self.turnarounds
    }

    /// The link model in force.
    pub fn model(&self) -> NetModel {
        self.model
    }

    /// Shared access to the wrapped channel.
    pub fn get_ref(&self) -> &C {
        &self.inner
    }

    /// Unwraps the channel, discarding any undrained link horizon.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Blocks until the outbound link has drained (serialization of every
    /// queued byte complete).
    fn drain_link(&mut self) {
        if let Some(t) = self.busy_until.take() {
            let now = Instant::now();
            if t > now {
                std::thread::sleep(t - now);
            }
        }
    }
}

impl<C: Channel> Channel for SimChannel<C> {
    fn send(&mut self, data: &[u8]) -> Result<(), ChannelError> {
        self.inner.send(data)?;
        let ser = self.model.serialization_time(data.len() as u64);
        if !ser.is_zero() {
            let now = Instant::now();
            let base = match self.busy_until {
                Some(t) if t > now => t,
                _ => now,
            };
            self.busy_until = Some(base + ser);
        }
        self.turnaround = true;
        Ok(())
    }

    fn recv(&mut self, n: usize) -> Result<Vec<u8>, ChannelError> {
        if self.turnaround {
            // The peer's answer can only follow our fully serialized
            // request; then its reply still has to travel the link.
            self.drain_link();
            if !self.model.latency.is_zero() {
                std::thread::sleep(self.model.latency);
            }
            self.turnaround = false;
            self.turnarounds += 1;
        }
        self.inner.recv(n)
    }

    fn flush(&mut self) -> Result<(), ChannelError> {
        self.inner.flush()?;
        self.drain_link();
        Ok(())
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
    use std::time::Instant;

    use crate::channel::mem_pair;

    use super::*;

    #[test]
    fn counters_match_wrapped_channel_exactly() {
        let (a, b) = mem_pair();
        let mut sa = SimChannel::new(a, NetModel::lan());
        let mut sb = SimChannel::new(b, NetModel::lan());
        sa.send(&[1u8; 300]).unwrap();
        sa.send_u64(42).unwrap();
        sb.send_bits(&[true, false, true]).unwrap();
        assert_eq!(sb.recv(300).unwrap(), vec![1u8; 300]);
        assert_eq!(sb.recv_u64().unwrap(), 42);
        assert_eq!(sa.recv_bits().unwrap(), vec![true, false, true]);
        // The wrapper adds time, never bytes: counters are the inner
        // channel's counters, bit for bit.
        assert_eq!(sa.bytes_sent(), sa.get_ref().bytes_sent());
        assert_eq!(sa.bytes_received(), sa.get_ref().bytes_received());
        assert_eq!(sb.bytes_sent(), sb.get_ref().bytes_sent());
        assert_eq!(sb.bytes_received(), sb.get_ref().bytes_received());
        assert_eq!(sa.bytes_sent(), 300 + 8); // payload + one u64
        assert_eq!(sb.bytes_sent(), 8 + 1); // length prefix + packed bits
        assert_eq!(sa.bytes_sent(), sb.bytes_received());
        assert_eq!(sb.bytes_sent(), sa.bytes_received());
    }

    #[test]
    fn latency_is_paid_per_turnaround() {
        let (a, b) = mem_pair();
        let model = NetModel {
            latency: Duration::from_millis(5),
            bits_per_second: None,
        };
        let mut sa = SimChannel::new(a, model);
        let mut sb = SimChannel::new(b, model);
        sb.send(b"xy").unwrap();
        let start = Instant::now();
        // Turnaround receive pays latency once; the follow-up chunk of the
        // same inbound burst does not.
        assert_eq!(sa.recv(1).unwrap(), b"x");
        assert_eq!(sa.recv(1).unwrap(), b"y");
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(5), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(50), "{elapsed:?}");
        assert_eq!(sa.turnarounds(), 1, "one latency charge, one count");
        assert_eq!(sb.turnarounds(), 0, "the sender never turned around");
    }

    #[test]
    fn many_small_sends_one_direction_pay_no_fake_round_trips() {
        // Regression for the chunked table stream: 200 one-way sends must
        // not fabricate 200 WAN round trips. The receiver pays exactly one
        // turnaround latency for the whole burst (its own first receive),
        // and the sender pays none at all.
        let (a, b) = mem_pair();
        let model = NetModel {
            latency: Duration::from_millis(25),
            bits_per_second: None,
        };
        let mut sa = SimChannel::new(a, model);
        let mut sb = SimChannel::new(b, model);
        let start = Instant::now();
        for _ in 0..200 {
            sa.send(&[7u8; 64]).unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_millis(25),
            "sender must never pay latency: {:?}",
            start.elapsed()
        );
        let start = Instant::now();
        for _ in 0..200 {
            assert_eq!(sb.recv(64).unwrap(), vec![7u8; 64]);
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(25), "{elapsed:?}");
        assert!(
            elapsed < Duration::from_millis(250),
            "one latency for the burst, not one per chunk: {elapsed:?}"
        );
        assert_eq!(sb.turnarounds(), 1, "whole burst = one turnaround");
        assert_eq!(sa.turnarounds(), 0);
    }

    #[test]
    fn bandwidth_paces_large_sends() {
        let (a, _b) = mem_pair();
        // 1 Mbit/s: 12_500 bytes = 100 ms of serialization, charged to the
        // link horizon and collected at flush.
        let model = NetModel {
            latency: Duration::ZERO,
            bits_per_second: Some(1_000_000),
        };
        let mut sa = SimChannel::new(a, model);
        let start = Instant::now();
        sa.send(&vec![0u8; 12_500]).unwrap();
        sa.flush().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(95));
    }

    #[test]
    fn compute_between_sends_overlaps_serialization() {
        // The streaming pipeline's core effect: work done between a send
        // and the next blocking point hides under the link's draining. 100
        // ms of serialization + 60 ms of "compute" must cost ~100 ms, not
        // 160 ms.
        let (a, _b) = mem_pair();
        let model = NetModel {
            latency: Duration::ZERO,
            bits_per_second: Some(1_000_000),
        };
        let mut sa = SimChannel::new(a, model);
        let start = Instant::now();
        sa.send(&vec![0u8; 12_500]).unwrap(); // 100 ms horizon
        std::thread::sleep(Duration::from_millis(60)); // stand-in compute
        sa.flush().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(95), "{elapsed:?}");
        assert!(
            elapsed < Duration::from_millis(150),
            "compute must overlap serialization, not add to it: {elapsed:?}"
        );
    }

    #[test]
    fn turnaround_recv_waits_for_own_serialization_first() {
        // A receive that answers our own burst cannot observe the reply
        // before our bytes even finished serializing.
        let (a, mut b) = mem_pair();
        let model = NetModel {
            latency: Duration::from_millis(10),
            bits_per_second: Some(1_000_000),
        };
        let mut sa = SimChannel::new(a, model);
        b.send(b"r").unwrap(); // reply already queued
        let start = Instant::now();
        sa.send(&vec![0u8; 12_500]).unwrap(); // 100 ms horizon
        assert_eq!(sa.recv(1).unwrap(), b"r");
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(105),
            "serialization + latency precede the reply: {elapsed:?}"
        );
    }

    #[test]
    fn ideal_model_adds_no_delay_on_ping_pong() {
        let (a, b) = mem_pair();
        let mut sa = SimChannel::new(a, NetModel::ideal());
        let mut sb = SimChannel::new(b, NetModel::ideal());
        for _ in 0..100 {
            sa.send(b"p").unwrap();
            assert_eq!(sb.recv(1).unwrap(), b"p");
            sb.send(b"q").unwrap();
            assert_eq!(sa.recv(1).unwrap(), b"q");
        }
    }
}
