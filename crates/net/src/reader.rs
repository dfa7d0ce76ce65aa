//! Blocking framed reads over a socket.

use crate::NetError;
use bytes::Bytes;
use std::io::Read;
use std::net::TcpStream;
use wren_protocol::frame::FrameDecoder;

/// Read-side chunk size. Small enough to keep per-connection memory
/// modest, large enough that a bulk replication burst needs few reads.
const READ_CHUNK: usize = 16 * 1024;

/// The receive half of a framed connection: wraps a [`TcpStream`] and a
/// [`FrameDecoder`], yielding one complete payload per call.
///
/// Chunk boundaries are immaterial: a peer may dribble single bytes or
/// batch many frames per segment, and the yielded payloads are
/// identical. If the stream has a read timeout configured, a quiet
/// period surfaces as [`NetError::Io`] with
/// [`is_timeout`](NetError::is_timeout) true.
pub struct FramedReader {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl FramedReader {
    /// Wraps a connected stream with the default frame-size ceiling.
    pub fn new(stream: TcpStream) -> Self {
        FramedReader {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; READ_CHUNK],
        }
    }

    /// Blocks until the next complete frame payload, `Ok(None)` on a
    /// clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// [`NetError::TruncatedFrame`] if the peer closed mid-frame,
    /// [`NetError::Frame`] on an oversized frame, [`NetError::Io`] on
    /// socket errors (including read timeouts).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, NetError> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(Some(payload));
            }
            let n = match self.stream.read(&mut self.buf) {
                // A signal landing on the blocked thread is no socket
                // error (`read_exact` retries it too); surfacing it
                // severed healthy sessions under parallel test load.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => read?,
            };
            if n == 0 {
                return if self.decoder.has_partial() {
                    Err(NetError::TruncatedFrame)
                } else {
                    Ok(None)
                };
            }
            self.decoder.extend(&self.buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use wren_clock::Timestamp;
    use wren_protocol::frame::frame_wren;
    use wren_protocol::WrenMsg;

    #[test]
    fn reads_frames_across_arbitrary_chunks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let msgs: Vec<WrenMsg> = (0..3)
                .map(|i| WrenMsg::Heartbeat {
                    t: Timestamp::from_micros(i),
                })
                .collect();
            let mut wire = Vec::new();
            for m in &msgs {
                wire.extend_from_slice(&frame_wren(m));
            }
            // Dribble the whole stream one byte at a time.
            for b in wire {
                s.write_all(&[b]).unwrap();
            }
        });
        let (accepted, _) = listener.accept().unwrap();
        let mut reader = FramedReader::new(accepted);
        for i in 0..3 {
            let p = reader.next_frame().unwrap().expect("frame");
            assert_eq!(
                WrenMsg::decode(&p).unwrap(),
                WrenMsg::Heartbeat {
                    t: Timestamp::from_micros(i)
                }
            );
        }
        assert!(reader.next_frame().unwrap().is_none(), "clean EOF");
        writer.join().unwrap();
    }

    #[test]
    fn mid_frame_close_is_truncation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let framed = frame_wren(&WrenMsg::Heartbeat {
                t: Timestamp::ZERO,
            });
            s.write_all(&framed[..framed.len() - 2]).unwrap();
            // Drop: close mid-frame.
        });
        let (accepted, _) = listener.accept().unwrap();
        let mut reader = FramedReader::new(accepted);
        assert!(matches!(
            reader.next_frame(),
            Err(NetError::TruncatedFrame)
        ));
        writer.join().unwrap();
    }
}
