//! The framed request protocol between `deepsecure_serve` and its
//! evaluator clients.
//!
//! One connection is one session:
//!
//! 1. client → `DSRV/4 <model> <fingerprint:016x>` (framed): the model
//!    name plus the circuit-shape fingerprint of [`crate::demo`].
//!    A reconnecting client appends ` RESUME <session-id> <token:016x>`
//!    to claim the OT-extension state of a previous session instead of
//!    paying for fresh base OTs.
//!    A hello in any other `DSRV/` version gets an `ERR` naming both
//!    versions, before a single base-OT byte moves.
//! 2. server → `OK <session-id> <chunk-gates> <token:016x>`,
//!    `DSRV/4 BUSY <retry-after-ms>`, or `ERR <reason>` (framed).
//!    `chunk-gates` is the server-chosen table-chunk size the client must
//!    evaluate with (`0` = buffered whole-cycle transfer); pinning it in
//!    the handshake is what lets chunk boundaries be *derived* instead of
//!    framed, keeping streamed wire bytes identical to buffered ones.
//!    `token` is an opaque resumption credential for step 1's RESUME
//!    path. `BUSY` is the shed reply: the server's admission queue is
//!    full and the client should back off for the advertised hint rather
//!    than pile up behind a saturated garbler.
//! 3. Both sides run the one-time base-OT setup on the raw byte stream —
//!    128 Chou–Orlandi random OTs in Ristretto255, two flights of 32-byte
//!    group elements (4 128 bytes in all) — skipped entirely on an
//!    accepted RESUME.
//! 4. Per request: client sends the sample index as a `u64`, both sides
//!    run the online phase, server answers with the decoded label as a
//!    `u64`. [`DONE`] instead of an index ends the session cleanly.

use deepsecure_ot::framed::MAX_FRAME_LEN;

/// Handshake protocol tag; bump on any wire-format change (v2: the OK
/// reply carries chunk-gates and a resumption token; hellos may carry a
/// RESUME claim; BUSY is a valid shed reply. v3: the base OT runs in
/// Ristretto255, 32-byte elements in place of 96-byte MODP ones. v4: the
/// base OT is the two-flight Chou–Orlandi random OT, so a v3 peer would
/// wait forever for a third flight).
pub const HELLO_PREFIX: &str = "DSRV/4";

/// Sent in place of a sample index to end the session.
pub const DONE: u64 = u64::MAX;

/// A parsed client hello.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Model the client wants to evaluate.
    pub model: String,
    /// The client's compiled-circuit fingerprint (must match the server's).
    pub fingerprint: u64,
    /// `Some((session_id, token))` when the client claims a previous
    /// session's OT-extension state instead of a fresh base-OT setup.
    pub resume: Option<(u64, u64)>,
}

/// The server's handshake reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Session accepted: id, table-chunk size, and resumption token.
    Accepted {
        /// Server-assigned session id.
        session_id: u64,
        /// Non-free gates per table chunk (`0` = buffered).
        chunk_gates: usize,
        /// Opaque credential for a later `RESUME` hello.
        token: u64,
    },
    /// Session shed by admission control; retry after the hint.
    Busy {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
}

/// Builds the client hello line.
pub fn hello(model: &str, fingerprint: u64) -> String {
    format!("{HELLO_PREFIX} {model} {fingerprint:016x}")
}

/// Builds a reconnecting client's hello line claiming a previous
/// session's OT-extension state.
pub fn hello_resume(model: &str, fingerprint: u64, session_id: u64, token: u64) -> String {
    format!("{HELLO_PREFIX} {model} {fingerprint:016x} RESUME {session_id} {token:016x}")
}

/// Parses a client hello.
///
/// # Errors
///
/// Describes the malformed part of the frame.
pub fn parse_hello(frame: &[u8]) -> Result<Hello, String> {
    let text = std::str::from_utf8(frame).map_err(|_| "hello is not UTF-8".to_string())?;
    let parts: Vec<&str> = text.split(' ').collect();
    if let Some(version) = parts[0].strip_prefix("DSRV/") {
        if parts[0] != HELLO_PREFIX {
            return Err(format!(
                "unsupported handshake version DSRV/{version} (this server speaks {HELLO_PREFIX})"
            ));
        }
    }
    let malformed = || {
        format!(
            "malformed hello {text:?} (want {HELLO_PREFIX:?} MODEL FINGERPRINT \
             [RESUME SESSION-ID TOKEN])"
        )
    };
    match parts.as_slice() {
        [HELLO_PREFIX, model, fp] => Ok(Hello {
            model: (*model).to_string(),
            fingerprint: u64::from_str_radix(fp, 16)
                .map_err(|_| format!("bad fingerprint {fp:?} in hello {text:?}"))?,
            resume: None,
        }),
        [HELLO_PREFIX, model, fp, "RESUME", sid, token] => Ok(Hello {
            model: (*model).to_string(),
            fingerprint: u64::from_str_radix(fp, 16)
                .map_err(|_| format!("bad fingerprint {fp:?} in hello {text:?}"))?,
            resume: Some((
                sid.parse()
                    .map_err(|_| format!("bad session id {sid:?} in hello {text:?}"))?,
                u64::from_str_radix(token, 16)
                    .map_err(|_| format!("bad resume token {token:?} in hello {text:?}"))?,
            )),
        }),
        _ => Err(malformed()),
    }
}

/// Builds the server's acceptance reply: session id, the table-chunk size
/// (non-free gates; `0` = buffered) this session will stream with, and
/// the resumption token the client may present on a reconnect.
pub fn ok(session_id: u64, chunk_gates: usize, token: u64) -> String {
    format!("OK {session_id} {chunk_gates} {token:016x}")
}

/// Builds the server's shed reply: no session was opened; the client
/// should back off for roughly `retry_after_ms` before reconnecting.
pub fn busy(retry_after_ms: u64) -> String {
    format!("{HELLO_PREFIX} BUSY {retry_after_ms}")
}

/// Builds the server's rejection reply, cut to fit one frame: `reason` may
/// echo a rejected hello, which can itself fill a frame.
pub fn err(reason: &str) -> String {
    let mut line = format!("ERR {reason}");
    let cap = MAX_FRAME_LEN as usize;
    if line.len() > cap {
        let mut end = cap - '…'.len_utf8();
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        line.truncate(end);
        line.push('…');
    }
    line
}

/// Parses the server reply, distinguishing acceptance from a `BUSY` shed.
/// A rejection (`ERR`) or malformed frame is the error.
///
/// # Errors
///
/// Returns the `ERR` reason, or a description of a malformed frame.
pub fn parse_reply(frame: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(frame).map_err(|_| "reply is not UTF-8".to_string())?;
    if let Some(reason) = text.strip_prefix("ERR ") {
        return Err(format!("server rejected the session: {reason}"));
    }
    if let Some(rest) = text.strip_prefix(HELLO_PREFIX) {
        if let Some(ms) = rest.strip_prefix(" BUSY ") {
            let retry_after_ms = ms
                .parse()
                .map_err(|_| format!("bad retry-after {ms:?} in busy reply {text:?}"))?;
            return Ok(Reply::Busy { retry_after_ms });
        }
    }
    let fields = text.strip_prefix("OK ").and_then(|rest| {
        let mut parts = rest.split(' ');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(sid), Some(chunk), Some(token), None) => Some(Reply::Accepted {
                session_id: sid.parse().ok()?,
                chunk_gates: chunk.parse().ok()?,
                token: u64::from_str_radix(token, 16).ok()?,
            }),
            _ => None,
        }
    });
    fields.ok_or_else(|| format!("malformed server reply {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let line = hello("tiny_mlp", 0xdead_beef_0042_1177);
        let h = parse_hello(line.as_bytes()).unwrap();
        assert_eq!(h.model, "tiny_mlp");
        assert_eq!(h.fingerprint, 0xdead_beef_0042_1177);
        assert_eq!(h.resume, None);
    }

    #[test]
    fn resume_hello_roundtrip() {
        let line = hello_resume("tiny_mlp", 0x1122, 17, 0xfeed_f00d_0000_0001);
        let h = parse_hello(line.as_bytes()).unwrap();
        assert_eq!(h.model, "tiny_mlp");
        assert_eq!(h.fingerprint, 0x1122);
        assert_eq!(h.resume, Some((17, 0xfeed_f00d_0000_0001)));
        assert!(parse_hello(b"DSRV/4 m 00 RESUME x 00").is_err());
        assert!(parse_hello(b"DSRV/4 m 00 RESUME 1").is_err());
    }

    #[test]
    fn reply_roundtrip_and_rejection() {
        assert_eq!(
            parse_reply(ok(17, 0, 0xabcd).as_bytes()).unwrap(),
            Reply::Accepted {
                session_id: 17,
                chunk_gates: 0,
                token: 0xabcd
            }
        );
        assert_eq!(
            parse_reply(ok(3, 8192, u64::MAX).as_bytes()).unwrap(),
            Reply::Accepted {
                session_id: 3,
                chunk_gates: 8192,
                token: u64::MAX
            }
        );
        assert_eq!(
            parse_reply(busy(250).as_bytes()).unwrap(),
            Reply::Busy {
                retry_after_ms: 250
            }
        );
        let e = parse_reply(err("fingerprint mismatch").as_bytes()).unwrap_err();
        assert!(e.contains("fingerprint mismatch"), "{e}");
        // Echoing a frame-filling hello still fits one frame.
        let hello = "é".repeat(MAX_FRAME_LEN as usize / 2);
        let line = err(&format!("malformed hello {hello:?}"));
        assert!(line.len() <= MAX_FRAME_LEN as usize && line.ends_with('…'));
        assert!(parse_reply(line.as_bytes()).is_err());
    }

    #[test]
    fn malformed_frames_are_described() {
        assert!(parse_hello(b"HTTP/1.1 GET /").is_err());
        assert!(parse_hello(&[0xff, 0xfe]).is_err());
        assert!(parse_hello(b"DSRV/4 tiny_mlp zzzz")
            .unwrap_err()
            .contains("fingerprint"));
        // A well-formed hello of an older version names both versions.
        for old in ["DSRV/2", "DSRV/3"] {
            let hello = format!("{old} tiny_mlp 0000000000000000");
            let e = parse_hello(hello.as_bytes()).unwrap_err();
            assert!(e.contains(old) && e.contains("DSRV/4"), "{e}");
        }
        assert!(parse_reply(b"maybe").is_err());
        // A v1 reply (no chunk field) must not parse as v2, and a
        // token-less OK must not parse as the resumable v2 either.
        assert!(parse_reply(b"OK 17").is_err());
        assert!(parse_reply(b"OK 17 0").is_err());
        assert!(parse_reply(b"DSRV/4 BUSY soon").is_err());
    }
}
