//! The TCP front end: accept loop, per-connection framing, shutdown.
//!
//! One thread accepts connections; each connection gets its own thread
//! running a read-frame → handle → write-frame loop (solver concurrency is
//! bounded by the service's admission queue, not by connection count). A
//! `shutdown` request — or [`ServerHandle::shutdown`] — flips the stop
//! flag and pokes the listener with a throwaway connection so the accept
//! loop observes it without resorting to non-blocking accept polling.
//!
//! A payload is looked up by its bytes before it is decoded: bytes the
//! memory tier has already answered are answered again from the same entry
//! (see [`crate::service`]), and only the rest go through the protocol
//! decoder and the full pipeline.

use crate::frame::{begin_frame, payload_len, read_frame, send_frame};
use crate::protocol::{Request, Response};
use crate::service::SchedulerService;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use ttw_core::json::{Json, Writer};

/// A running scheduler server bound to a local address.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<SchedulerService>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections for `service`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound or
    /// inspected.
    pub fn bind(service: Arc<SchedulerService>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_service = Arc::clone(&service);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("ttw-service-accept".into())
            .spawn(move || accept_loop(&listener, &accept_service, &accept_stop))?;
        Ok(ServerHandle {
            addr: local_addr,
            service,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the server (stats, cache access).
    pub fn service(&self) -> &Arc<SchedulerService> {
        &self.service
    }

    /// Stops accepting connections and joins the accept thread.
    ///
    /// In-flight connections finish their current request and then drop
    /// when the peer disconnects; they are not force-closed.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Poke the blocking accept so it re-checks the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<SchedulerService>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small request/response bursts; disable Nagle so the
        // response is not held back waiting for a delayed ACK.
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(service);
        let stop = Arc::clone(stop);
        let addr = listener.local_addr().ok();
        // A connection we cannot spawn a thread for is dropped; the client
        // sees a closed connection and can retry.
        let _ = std::thread::Builder::new()
            .name("ttw-service-conn".into())
            .spawn(move || {
                let _ = serve_connection(stream, &service, &stop, addr);
            });
    }
}

/// Runs the request/response loop of one connection until the peer
/// disconnects, a fatal I/O error occurs, or a shutdown request arrives.
fn serve_connection(
    mut stream: TcpStream,
    service: &Arc<SchedulerService>,
    stop: &Arc<AtomicBool>,
    server_addr: Option<SocketAddr>,
) -> io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let mut frame = begin_frame(0);
        let shutdown = respond(&payload, service, &mut frame);
        // Booked before the write: once a client has read its reply, every
        // snapshot it can take contains that reply's bytes.
        service.note_reply_bytes(payload_len(&frame));
        send_frame(&mut stream, &mut frame)?;
        if shutdown {
            if !stop.swap(true, Ordering::SeqCst) {
                // First to request shutdown: poke the accept loop awake.
                if let Some(addr) = server_addr {
                    let _ = TcpStream::connect(addr);
                }
            }
            break;
        }
    }
    Ok(())
}

/// Appends the response to one request payload to `frame`; the bool asks
/// the connection loop to initiate server shutdown. A served schedule is
/// spliced — envelope around the already encoded body — and every other
/// response is written into the frame by the [`Response`] codec.
///
/// Bytes already answered from the memory tier are answered again from the
/// entry they were recorded on, before anything is decoded; everything
/// else is decoded and served through the full pipeline.
fn respond(payload: &[u8], service: &SchedulerService, frame: &mut Vec<u8>) -> bool {
    if let Some(repeat) = service.serve_repeat(payload) {
        repeat.write_json(frame);
        return false;
    }
    let mut encode = |response: Response| response.write(&mut Writer::compact(frame));
    let served = match Request::from_json(payload) {
        Ok(Request::Synthesize(request)) => service.serve_encoded(&request, None, payload),
        Ok(Request::Resynthesize(request)) => {
            service.serve_encoded(&request.base, Some(&request.predecessor), payload)
        }
        Ok(Request::Stats) => {
            encode(Response::Stats(service.snapshot()));
            return false;
        }
        Ok(Request::Shutdown) => {
            encode(Response::ShutdownAck);
            return true;
        }
        Err(error) => {
            let message = format!("bad request: {error}");
            encode(Response::Error { message });
            return false;
        }
    };
    match served {
        Ok(reply) => reply.write_json(frame),
        Err(error) => {
            let message = error.to_string();
            encode(Response::Error { message });
        }
    }
    false
}
