//! Framed wire protocol for the scan service.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is the opcode. The codec is
//! transport-agnostic (`std::io::Read`/`Write`), so it runs unchanged
//! over TCP, Unix sockets and in-memory pipes in tests.
//!
//! # Frames
//!
//! | opcode | frame                 | body                                            |
//! |--------|-----------------------|-------------------------------------------------|
//! | 1      | `OPEN`                | tenant (u16 len + utf8), db-ref, max_edits u8   |
//! | 2      | `FEED`                | sid u64, eod u8, chunk bytes                    |
//! | 3      | `CLOSE`               | sid u64                                         |
//! | 4      | `METRICS`             | —                                               |
//! | 5      | `SHUTDOWN`            | —                                               |
//! | 128    | `OPENED`              | sid u64                                         |
//! | 129    | `REPORTS`             | sid u64, count u32, count × (offset u64, code u32) |
//! | 130    | `CLOSED`              | sid u64, fed_bytes u64                          |
//! | 131    | `METRICS_JSON`        | utf8 JSON                                       |
//! | 132    | `SHUTTING_DOWN`       | —                                               |
//! | 133    | `ERROR`               | code u16, utf8 message                          |
//!
//! A db-ref is a `u8` tag: `0` + `u64` for a cached database key,
//! `1` + `u32` length + bytes for an inline serialized artifact.
//! `max_edits` is the session's approximate-matching budget: `0` scans
//! the referenced database exactly; `1..=3` has the server derive (and
//! cache) the Levenshtein mesh of that database's literal chains at the
//! requested distance, answering with a typed `ERROR` when the machine
//! cannot be fuzzified.
//!
//! `FEED` with `eod = 1` finishes the stream (an empty chunk is the
//! explicit end-of-data marker). The server replies to every `FEED`
//! with a `REPORTS` frame draining what that feed produced, and to
//! `CLOSE` with a final `REPORTS` (anything still buffered) then
//! `CLOSED`. `ERROR` replies carry the typed [`ServeError`] category in
//! the code field; the session-feed errors are deterministic, so a
//! client can retry or drop deterministically too.

use std::io::{IoSlice, Read, Write};

use crate::service::ServeError;

/// Hard cap on a single frame's payload, guarding both sides against a
/// corrupt or hostile length prefix.
pub const MAX_FRAME: usize = 64 << 20;

/// Typed wire-level failures.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The peer closed the connection between frames (clean EOF).
    Closed,
    /// A length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// The payload ended before its body did.
    Truncated,
    /// An unknown opcode or tag byte.
    BadOpcode(u8),
    /// A string field was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Closed => write!(f, "peer closed the connection"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::Truncated => write!(f, "frame payload truncated"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode or tag {op:#04x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Reference to the database a session should scan with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbRef {
    /// A key previously returned by registering or loading a database.
    ByKey(u64),
    /// A serialized artifact, resolved through the server's cache.
    Artifact(Vec<u8>),
}

/// Client-to-server frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session for `tenant` over `db`.
    Open {
        /// Tenant name for quota accounting.
        tenant: String,
        /// Database to scan with.
        db: DbRef,
        /// Approximate-matching edit budget for this session; `0` scans
        /// exactly, `1..=3` scans the server-derived Levenshtein mesh.
        max_edits: u8,
    },
    /// Feed one chunk; `eod` finishes the stream.
    Feed {
        /// Session to feed.
        sid: u64,
        /// Whether this chunk ends the stream.
        eod: bool,
        /// The chunk itself (may be empty with `eod`).
        data: Vec<u8>,
    },
    /// Close a session.
    Close {
        /// Session to close.
        sid: u64,
    },
    /// Request a metrics snapshot.
    Metrics,
    /// Ask the server to exit after draining connections.
    Shutdown,
}

/// Server-to-client frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session is open.
    Opened {
        /// Its id, used in every later frame.
        sid: u64,
    },
    /// Reports drained from a session, in emission order.
    Reports {
        /// The session they came from.
        sid: u64,
        /// `(offset, code)` pairs.
        reports: Vec<(u64, u32)>,
    },
    /// The session is closed.
    Closed {
        /// The closed session.
        sid: u64,
        /// Raw bytes it was fed over its lifetime.
        fed_bytes: u64,
    },
    /// A metrics snapshot in the `azoo-serve-metrics-v1` schema.
    MetricsJson(String),
    /// The server acknowledged `SHUTDOWN` and is exiting.
    ShuttingDown,
    /// A typed rejection or failure; the connection stays usable.
    Error {
        /// Category code (see [`error_code`]).
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

/// Stable wire code for each [`ServeError`] category.
pub fn error_code(e: &ServeError) -> u16 {
    match e {
        ServeError::Overloaded { .. } => 1,
        ServeError::QuotaExceeded { .. } => 2,
        ServeError::TimedOut => 3,
        ServeError::UnknownSession(_) => 4,
        ServeError::StreamFinished(_) => 5,
        ServeError::Cancelled(_) => 6,
        ServeError::Db(_) => 7,
    }
}

impl Request {
    /// Serializes the request into one frame payload (without the
    /// length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Open {
                tenant,
                db,
                max_edits,
            } => {
                out.push(1);
                out.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
                out.extend_from_slice(tenant.as_bytes());
                match db {
                    DbRef::ByKey(key) => {
                        out.push(0);
                        out.extend_from_slice(&key.to_le_bytes());
                    }
                    DbRef::Artifact(bytes) => {
                        out.push(1);
                        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                        out.extend_from_slice(bytes);
                    }
                }
                out.push(*max_edits);
            }
            Request::Feed { sid, eod, data } => {
                out.push(2);
                out.extend_from_slice(&sid.to_le_bytes());
                out.push(u8::from(*eod));
                out.extend_from_slice(data);
            }
            Request::Close { sid } => {
                out.push(3);
                out.extend_from_slice(&sid.to_le_bytes());
            }
            Request::Metrics => out.push(4),
            Request::Shutdown => out.push(5),
        }
        out
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Truncated`], [`ProtoError::BadOpcode`] or
    /// [`ProtoError::BadUtf8`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Cursor::new(payload);
        let req = match r.u8()? {
            1 => {
                let tlen = r.u16()? as usize;
                let tenant =
                    String::from_utf8(r.bytes(tlen)?.to_vec()).map_err(|_| ProtoError::BadUtf8)?;
                let db = match r.u8()? {
                    0 => DbRef::ByKey(r.u64()?),
                    1 => {
                        let len = r.u32()? as usize;
                        DbRef::Artifact(r.bytes(len)?.to_vec())
                    }
                    tag => return Err(ProtoError::BadOpcode(tag)),
                };
                let max_edits = r.u8()?;
                Request::Open {
                    tenant,
                    db,
                    max_edits,
                }
            }
            2 => Request::Feed {
                sid: r.u64()?,
                eod: r.u8()? != 0,
                data: r.rest().to_vec(),
            },
            3 => Request::Close { sid: r.u64()? },
            4 => Request::Metrics,
            5 => Request::Shutdown,
            op => return Err(ProtoError::BadOpcode(op)),
        };
        Ok(req)
    }
}

impl Response {
    /// Serializes the response into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Opened { sid } => {
                out.push(128);
                out.extend_from_slice(&sid.to_le_bytes());
            }
            Response::Reports { sid, reports } => {
                out.push(129);
                out.extend_from_slice(&sid.to_le_bytes());
                out.extend_from_slice(&(reports.len() as u32).to_le_bytes());
                for (offset, code) in reports {
                    out.extend_from_slice(&offset.to_le_bytes());
                    out.extend_from_slice(&code.to_le_bytes());
                }
            }
            Response::Closed { sid, fed_bytes } => {
                out.push(130);
                out.extend_from_slice(&sid.to_le_bytes());
                out.extend_from_slice(&fed_bytes.to_le_bytes());
            }
            Response::MetricsJson(json) => {
                out.push(131);
                out.extend_from_slice(json.as_bytes());
            }
            Response::ShuttingDown => out.push(132),
            Response::Error { code, message } => {
                out.push(133);
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
        }
        out
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Truncated`], [`ProtoError::BadOpcode`] or
    /// [`ProtoError::BadUtf8`].
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Cursor::new(payload);
        let resp = match r.u8()? {
            128 => Response::Opened { sid: r.u64()? },
            129 => {
                let sid = r.u64()?;
                let count = r.u32()? as usize;
                let mut reports = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    reports.push((r.u64()?, r.u32()?));
                }
                Response::Reports { sid, reports }
            }
            130 => Response::Closed {
                sid: r.u64()?,
                fed_bytes: r.u64()?,
            },
            131 => Response::MetricsJson(
                String::from_utf8(r.rest().to_vec()).map_err(|_| ProtoError::BadUtf8)?,
            ),
            132 => Response::ShuttingDown,
            133 => Response::Error {
                code: r.u16()?,
                message: String::from_utf8(r.rest().to_vec()).map_err(|_| ProtoError::BadUtf8)?,
            },
            op => return Err(ProtoError::BadOpcode(op)),
        };
        Ok(resp)
    }
}

/// Writes one length-prefixed frame.
///
/// Length and payload go out in one vectored write, so a peer blocked in
/// [`read_frame`] wakes once per frame rather than once for the length
/// and again for the payload.
///
/// # Errors
///
/// [`ProtoError::FrameTooLarge`] or [`ProtoError::Io`].
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(payload.len()));
    }
    let len = (payload.len() as u32).to_le_bytes();
    let mut bufs = [IoSlice::new(&len), IoSlice::new(payload)];
    let mut rest = &mut bufs[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame payload.
///
/// # Errors
///
/// [`ProtoError::Closed`] on clean EOF between frames,
/// [`ProtoError::FrameTooLarge`] or [`ProtoError::Io`].
pub fn read_frame(r: &mut dyn Read) -> Result<Vec<u8>, ProtoError> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Err(ProtoError::Closed),
            0 => return Err(ProtoError::Truncated),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    })?;
    Ok(payload)
}

/// Convenience: encode + frame a request.
///
/// # Errors
///
/// See [`write_frame`].
pub fn send_request(w: &mut dyn Write, req: &Request) -> Result<(), ProtoError> {
    write_frame(w, &req.encode())
}

/// Convenience: read + decode one response frame.
///
/// # Errors
///
/// See [`read_frame`] and [`Response::decode`].
pub fn recv_response(r: &mut dyn Read) -> Result<Response, ProtoError> {
    Response::decode(&read_frame(r)?)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("len 2"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("len 4"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("len 8"),
        ))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let cases = vec![
            Request::Open {
                tenant: "snort".into(),
                db: DbRef::ByKey(0xDEAD_BEEF),
                max_edits: 0,
            },
            Request::Open {
                tenant: "".into(),
                db: DbRef::Artifact(vec![1, 2, 3]),
                max_edits: 3,
            },
            Request::Feed {
                sid: 7,
                eod: true,
                data: b"payload".to_vec(),
            },
            Request::Feed {
                sid: u64::MAX,
                eod: false,
                data: Vec::new(),
            },
            Request::Close { sid: 9 },
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in cases {
            let decoded = Request::decode(&req.encode()).expect("decode");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_round_trips() {
        let cases = vec![
            Response::Opened { sid: 3 },
            Response::Reports {
                sid: 3,
                reports: vec![(0, 1), (u64::MAX, u32::MAX)],
            },
            Response::Reports {
                sid: 4,
                reports: Vec::new(),
            },
            Response::Closed {
                sid: 3,
                fed_bytes: 1 << 40,
            },
            Response::MetricsJson("{\"schema\":\"azoo-serve-metrics-v1\"}".into()),
            Response::ShuttingDown,
            Response::Error {
                code: 2,
                message: "quota".into(),
            },
        ];
        for resp in cases {
            let decoded = Response::decode(&resp.encode()).expect("decode");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn framing_round_trips_over_a_buffer() {
        let mut wire = Vec::new();
        let req = Request::Feed {
            sid: 1,
            eod: false,
            data: b"abc".to_vec(),
        };
        send_request(&mut wire, &req).expect("send");
        let mut reader: &[u8] = &wire;
        let payload = read_frame(&mut reader).expect("frame");
        assert_eq!(Request::decode(&payload).expect("decode"), req);
        // Clean EOF after the frame is a typed Closed, not an Io error.
        assert!(matches!(read_frame(&mut reader), Err(ProtoError::Closed)));
    }

    #[test]
    fn frames_survive_short_and_interrupted_writes() {
        /// Takes at most 3 bytes per call and fails every fourth call
        /// with `Interrupted`.
        struct Trickle {
            wire: Vec<u8>,
            calls: u32,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.calls.is_multiple_of(4) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(3);
                self.wire.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload: Vec<u8> = (0..=40).collect();
        let mut w = Trickle {
            wire: Vec::new(),
            calls: 0,
        };
        write_frame(&mut w, &payload).expect("write");
        write_frame(&mut w, &[]).expect("write empty");
        let mut reader: &[u8] = &w.wire;
        assert_eq!(read_frame(&mut reader).expect("read"), payload);
        assert_eq!(read_frame(&mut reader).expect("read empty"), b"");
        assert!(matches!(read_frame(&mut reader), Err(ProtoError::Closed)));
    }

    #[test]
    fn malformed_frames_are_typed() {
        // Truncated length prefix.
        let mut reader: &[u8] = &[1, 0];
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtoError::Truncated)
        ));
        // Length prefix beyond the cap.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut reader: &[u8] = &huge;
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtoError::FrameTooLarge(_))
        ));
        // Payload shorter than the prefix promises.
        let mut wire = 10u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[2, 0, 0]);
        let mut reader: &[u8] = &wire;
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtoError::Truncated)
        ));
        // Unknown opcode.
        assert!(matches!(
            Request::decode(&[99]),
            Err(ProtoError::BadOpcode(99))
        ));
        // Body truncated mid-field.
        assert!(matches!(
            Request::decode(&[3, 1, 2]),
            Err(ProtoError::Truncated)
        ));
        // OPEN missing its trailing max_edits byte.
        let open = Request::Open {
            tenant: "t".into(),
            db: DbRef::ByKey(1),
            max_edits: 2,
        }
        .encode();
        assert!(matches!(
            Request::decode(&open[..open.len() - 1]),
            Err(ProtoError::Truncated)
        ));
        // Non-UTF-8 tenant.
        assert!(matches!(
            Request::decode(&[1, 2, 0, 0xFF, 0xFE, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtoError::BadUtf8)
        ));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(error_code(&ServeError::Overloaded { resource: "bytes" }), 1);
        assert_eq!(
            error_code(&ServeError::QuotaExceeded {
                tenant: "t".into(),
                resource: "bytes",
            }),
            2
        );
        assert_eq!(error_code(&ServeError::TimedOut), 3);
        assert_eq!(error_code(&ServeError::UnknownSession(1)), 4);
        assert_eq!(error_code(&ServeError::StreamFinished(1)), 5);
        assert_eq!(error_code(&ServeError::Cancelled(1)), 6);
    }
}
