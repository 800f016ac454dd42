//! Length-prefixed framing over a byte stream.
//!
//! Every message on the wire is a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. The framing layer is agnostic to the
//! payload — [`crate::protocol`] owns the JSON shapes — and works over any
//! `Read`/`Write` pair, which keeps it testable against in-memory buffers
//! and usable over `TcpStream` unchanged.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload, in bytes.
///
/// Large systems serialize to a few hundred KiB; 64 MiB leaves two orders
/// of magnitude of headroom while still rejecting a client that sends a
/// garbage length word (e.g. an HTTP request aimed at our port) before we
/// try to allocate it.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// How much payload buffer a length word alone may reserve. A frame longer
/// than this grows its buffer with the bytes that actually arrive, so a
/// connection that sends four bytes and goes quiet pins one chunk, not
/// [`MAX_FRAME_LEN`].
pub const READ_CHUNK: usize = 64 << 10;

const HEADER_LEN: usize = 4;

fn check_payload_len(len: usize) -> io::Result<()> {
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    Ok(())
}

/// Starts a frame: room for the length prefix, after which the caller
/// appends the payload and hands the buffer to [`send_frame`]. Building the
/// payload in place saves the copy [`write_frame`] makes of a finished one.
pub(crate) fn begin_frame(payload_capacity: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload_capacity);
    frame.extend_from_slice(&[0; HEADER_LEN]);
    frame
}

/// The payload bytes appended so far to a frame started by [`begin_frame`].
pub(crate) fn payload_len(frame: &[u8]) -> usize {
    frame.len() - HEADER_LEN
}

/// Fills in the length prefix of a frame started by [`begin_frame`], writes
/// it and flushes the writer.
///
/// # Errors
///
/// As [`write_frame`].
pub(crate) fn send_frame(writer: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let len = payload_len(frame);
    check_payload_len(len)?;
    frame[..HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    // One contiguous write: splitting header and payload into separate
    // syscalls lets Nagle's algorithm hold the payload hostage to the
    // peer's delayed ACK of the header segment (~40 ms per round trip).
    writer.write_all(frame)?;
    writer.flush()
}

/// Writes one length-prefixed frame and flushes the writer.
///
/// # Errors
///
/// Returns an error if the payload exceeds [`MAX_FRAME_LEN`] or on any
/// underlying I/O failure.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    // Refuse before copying what cannot be sent.
    check_payload_len(payload.len())?;
    let mut frame = begin_frame(payload.len());
    frame.extend_from_slice(payload);
    send_frame(writer, &mut frame)
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed the
/// connection between frames); end-of-stream in the middle of a frame is an
/// [`io::ErrorKind::UnexpectedEof`] error.
///
/// # Errors
///
/// Returns an error on truncated frames, oversized length prefixes
/// (> [`MAX_FRAME_LEN`]) and any underlying I/O failure.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = Vec::new();
    read_payload(reader, len, &mut payload)?;
    Ok(Some(payload))
}

/// Reads exactly `len` payload bytes into the empty `payload`. The length
/// word is a promise, not data: the buffer grows one chunk ahead of the
/// bytes that have arrived, never to `len` up front. A frame of up to one
/// chunk is a single `read_exact`, as it always was.
fn read_payload(reader: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> io::Result<()> {
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(READ_CHUNK), 0);
        reader.read_exact(&mut payload[filled..])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third frame").unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"first"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"third frame"[..])
        );
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut reader: &[u8] = &[];
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn eof_inside_header_or_payload_is_an_error() {
        let mut reader: &[u8] = &[0, 0];
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Header promises 10 bytes, only 3 arrive.
        let mut truncated = 10u32.to_be_bytes().to_vec();
        truncated.extend_from_slice(b"abc");
        let mut reader = truncated.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Counts the reads a frame costs the underlying stream.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_length_word_alone_reserves_one_chunk_at_most() {
        // Four bytes promise 64 MiB, ten arrive, then the peer goes away.
        let mut reader: &[u8] = b"ten bytes.";
        let mut payload = Vec::new();
        let error = read_payload(&mut reader, MAX_FRAME_LEN, &mut payload).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() <= READ_CHUNK, "{}", payload.capacity());

        // The same through the public entry point.
        let mut wire = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(b"ten bytes.");
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn a_frame_costs_one_read_for_the_header_and_one_per_chunk() {
        for len in [0, 1, 16 << 10, READ_CHUNK, READ_CHUNK + 1, 3 * READ_CHUNK] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).unwrap();
            let mut reader = CountingReader {
                bytes: &wire,
                reads: 0,
            };
            assert_eq!(read_frame(&mut reader).unwrap(), Some(payload));
            // One for the header, one per chunk of payload.
            assert_eq!(
                reader.reads,
                1 + len.div_ceil(READ_CHUNK),
                "{len}-byte frame"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = (u32::MAX).to_be_bytes().to_vec();
        wire.extend_from_slice(b"junk");
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_payload_is_rejected_on_write() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut wire = Vec::new();
        assert_eq!(
            write_frame(&mut wire, &huge).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(wire.is_empty());
    }
}
