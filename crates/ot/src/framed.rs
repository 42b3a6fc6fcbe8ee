//! Length-prefixed handshake frames over any byte [`Channel`].
//!
//! The protocol channels are pure byte streams: the receiver always knows
//! exactly how many bytes to expect. Only the serving handshake (`DSRV/4`)
//! exchanges self-describing lines, so [`send_frame`] and [`recv_frame`]
//! move whole frames — a 4-byte little-endian length, then the payload —
//! on the same channel the protocol then runs on.

use crate::channel::{Channel, ChannelError};

/// Upper bound on a frame's payload. Every frame is a handshake line of a
/// few hundred bytes; a header above this is corrupt framing (e.g. a
/// raw-stream peer) or a hostile one, refused before any of its claimed
/// body is allocated or awaited.
pub const MAX_FRAME_LEN: u32 = 4096;

/// Sends one length-prefixed frame (empty payloads are legal); both
/// endpoints of a connection must agree to frame.
///
/// # Errors
///
/// Fails if the payload exceeds [`MAX_FRAME_LEN`] or the transport fails.
pub fn send_frame(chan: &mut impl Channel, payload: &[u8]) -> Result<(), ChannelError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            ChannelError::msg(format!(
                "sending frame: payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                payload.len()
            ))
        })?;
    chan.send(&len.to_le_bytes())?;
    chan.send(payload)
}

/// Receives one whole frame.
///
/// # Errors
///
/// Fails on transport failure or a corrupt (oversized) header.
pub fn recv_frame(chan: &mut impl Channel) -> Result<Vec<u8>, ChannelError> {
    let header = chan.recv(4)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_FRAME_LEN {
        return Err(ChannelError::msg(format!(
            "receiving frame: header claims {len} bytes (cap {MAX_FRAME_LEN}) — \
             corrupt framing or an unframed peer"
        )));
    }
    chan.recv(len as usize)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::channel::mem_pair;

    use super::*;

    #[test]
    fn whole_frames_roundtrip() {
        let (mut a, mut b) = mem_pair();
        send_frame(&mut a, b"alpha").unwrap();
        send_frame(&mut a, b"").unwrap();
        send_frame(&mut a, &[7u8; 1000]).unwrap();
        assert_eq!(recv_frame(&mut b).unwrap(), b"alpha");
        assert_eq!(recv_frame(&mut b).unwrap(), b"");
        assert_eq!(recv_frame(&mut b).unwrap(), vec![7u8; 1000]);
        // Counters include the empty payload and the three 4-byte headers.
        assert_eq!(a.bytes_sent(), 5 + 1000 + 3 * 4);
    }

    #[test]
    fn oversized_header_is_a_diagnosable_error() {
        // A peer that doesn't frame: raw bytes read as an absurd length.
        // One byte over the cap is refused the same way, and nothing of
        // the claimed body is waited for.
        for len in [u32::MAX, MAX_FRAME_LEN + 1] {
            let (mut a, mut b) = mem_pair();
            a.send(&len.to_le_bytes()).unwrap();
            let err = recv_frame(&mut b).unwrap_err();
            assert!(err.to_string().contains("corrupt framing"), "{err}");
        }
        let (mut a, _b) = mem_pair();
        let err = send_frame(&mut a, &vec![0u8; MAX_FRAME_LEN as usize + 1]).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        assert_eq!(a.bytes_sent(), 0, "nothing of a refused frame is sent");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn framing_roundtrips_arbitrary_messages(
            sizes in proptest::collection::vec(0usize..600, 1..12),
            seed in any::<u64>(),
        ) {
            // Frames of arbitrary sizes (incl. 0) arrive whole and in order.
            let (mut a, mut b) = mem_pair();
            let mut x = seed | 1;
            let frames: Vec<Vec<u8>> = sizes
                .iter()
                .map(|&n| {
                    (0..n)
                        .map(|j| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
                            (x >> 33) as u8
                        })
                        .collect()
                })
                .collect();
            for frame in &frames {
                send_frame(&mut a, frame).unwrap();
            }
            for frame in &frames {
                prop_assert_eq!(&recv_frame(&mut b).unwrap(), frame);
            }
            // Wire accounting: payload plus one 4-byte header per frame.
            let wire = sizes.iter().sum::<usize>() as u64 + 4 * sizes.len() as u64;
            prop_assert_eq!(a.bytes_sent(), wire);
            prop_assert_eq!(b.bytes_received(), wire);
        }
    }
}
