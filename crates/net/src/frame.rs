//! Length-prefixed binary framing.
//!
//! One frame = `u32` little-endian payload length + payload bytes. The
//! length is validated against a hard cap *before* any allocation, so a
//! hostile peer cannot make the reader allocate attacker-controlled
//! amounts of memory. Socket read timeouts are folded into the protocol:
//! a timeout while waiting for a new frame header is a clean idle tick
//! (so servers can poll their shutdown flag), while a timeout in the
//! middle of a frame is a stalled peer and a hard error.
//!
//! Both directions take the [`Faults`] handle of the endpoint doing the
//! I/O (the server's for its side of a connection, the session's for
//! the client's), which the `net/frame/*` failpoint sites consult.

use std::io::{ErrorKind, Read, Write};

use graql_types::failpoints::Faults;
use graql_types::{GraqlError, Result};

/// Default hard cap on one frame's payload (32 MiB). Large result tables
/// are streamed in row batches well below this.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// Outcome of one framed read.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The read deadline passed with no bytes of a new frame — the
    /// connection is idle, not broken.
    TimedOut,
    /// The peer closed the connection at a frame boundary.
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// How a fixed-size read at a frame boundary ended.
enum Fill {
    Complete,
    /// Timeout with zero bytes read (only at a frame boundary).
    IdleTimeout,
    /// EOF with zero bytes read (only at a frame boundary).
    Eof,
}

/// Reads exactly `buf.len()` bytes. `start_of_frame` selects the
/// semantics of a zero-byte timeout/EOF: at a frame boundary they are
/// clean ([`Fill::IdleTimeout`] / [`Fill::Eof`]); once any byte has
/// arrived — or when reading a payload — they mean the peer stalled or
/// vanished mid-frame and become errors.
fn read_exact_frame(r: &mut impl Read, buf: &mut [u8], start_of_frame: bool) -> Result<Fill> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if start_of_frame && filled == 0 {
                    return Ok(Fill::Eof);
                }
                return Err(GraqlError::net_retryable("connection closed mid-frame"));
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if start_of_frame && filled == 0 {
                    return Ok(Fill::IdleTimeout);
                }
                return Err(GraqlError::net_retryable(
                    "read deadline exceeded mid-frame",
                ));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(GraqlError::net_retryable(format!("read failed: {e}"))),
        }
    }
    Ok(Fill::Complete)
}

/// Reads one frame. A timeout before the first header byte yields
/// [`FrameRead::TimedOut`]; EOF at a frame boundary yields
/// [`FrameRead::Closed`]; oversized lengths and mid-frame stalls are
/// errors.
pub fn read_frame(r: &mut impl Read, max_frame: usize, faults: &Faults) -> Result<FrameRead> {
    graql_types::failpoint!(faults, "net/frame/read-delay");
    graql_types::failpoint!(faults, "net/frame/read-err", GraqlError::net_retryable);
    let mut header = [0u8; 4];
    match read_exact_frame(r, &mut header, true)? {
        Fill::Complete => {}
        Fill::IdleTimeout => return Ok(FrameRead::TimedOut),
        Fill::Eof => return Ok(FrameRead::Closed),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max_frame {
        return Err(GraqlError::net(format!(
            "frame of {len} bytes exceeds the {max_frame}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_frame(r, &mut payload, false)?;
    Ok(FrameRead::Frame(payload))
}

/// Writes one frame (length header + payload) and flushes.
pub fn write_frame(
    w: &mut impl Write,
    payload: &[u8],
    max_frame: usize,
    faults: &Faults,
) -> Result<()> {
    if payload.len() > max_frame {
        return Err(GraqlError::net(format!(
            "refusing to send a {}-byte frame (limit {max_frame})",
            payload.len()
        )));
    }
    graql_types::failpoint!(faults, "net/frame/write-delay");
    graql_types::failpoint!(faults, "net/frame/write-err", GraqlError::net_retryable);
    #[cfg(feature = "failpoints")]
    let corrupted: Vec<u8>;
    #[cfg(feature = "failpoints")]
    let payload: &[u8] = {
        use graql_types::failpoints::Action;
        if faults.hit("net/frame/write-truncate").is_some() && !payload.is_empty() {
            // A mid-frame death: the header promises more bytes than ever
            // arrive, so the peer sees a hard "closed mid-frame" error —
            // never a silently short payload.
            let header = (payload.len() as u32).to_le_bytes();
            let _ = w
                .write_all(&header)
                .and_then(|()| w.write_all(&payload[..payload.len() / 2]))
                .and_then(|()| w.flush());
            return Err(GraqlError::net_retryable(
                "failpoint 'net/frame/write-truncate': frame truncated mid-write",
            ));
        }
        if matches!(faults.hit("net/frame/write-corrupt"), Some(Action::Corrupt))
            && !payload.is_empty()
        {
            // Flipping the first payload byte corrupts the message tag, so
            // the peer's decoder rejects the frame deterministically.
            let mut buf = payload.to_vec();
            buf[0] ^= 0xFF;
            corrupted = buf;
            &corrupted
        } else {
            payload
        }
    };
    let header = (payload.len() as u32).to_le_bytes();
    w.write_all(&header)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| {
            if is_timeout(&e) {
                GraqlError::net_retryable("write deadline exceeded")
            } else {
                GraqlError::net_retryable(format!("write failed: {e}"))
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let off = Faults::default();
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_FRAME, &off).unwrap();
        write_frame(&mut buf, b"", MAX_FRAME, &off).unwrap();
        let mut r = Cursor::new(buf);
        let FrameRead::Frame(p) = read_frame(&mut r, MAX_FRAME, &off).unwrap() else {
            panic!()
        };
        assert_eq!(p, b"hello");
        let FrameRead::Frame(p) = read_frame(&mut r, MAX_FRAME, &off).unwrap() else {
            panic!()
        };
        assert!(p.is_empty());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024, &Faults::default()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(b"short");
        let err = read_frame(&mut Cursor::new(buf), 1024, &Faults::default()).unwrap_err();
        assert!(err.to_string().contains("mid-frame"), "{err}");
    }

    #[test]
    fn writer_refuses_oversized_frames() {
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 32], 16, &Faults::default()).is_err());
    }
}
