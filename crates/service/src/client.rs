//! A blocking client for the scheduler service.
//!
//! One [`Client`] owns one TCP connection and runs strictly
//! request/response over it — the natural shape for the load generator and
//! the CI smoke test. Multiple clients multiplex server-side through the
//! per-connection threads.

use crate::frame::{begin_frame, read_frame, send_frame};
use crate::protocol::{Request, Response, ResynthesizeRequest, ScheduleReply, SynthesizeRequest};
use crate::stats::StatsSnapshot;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use ttw_core::json::{Json, Writer};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, truncated frame).
    Io(io::Error),
    /// The server's bytes did not parse as a response document.
    Protocol(String),
    /// The server answered with an `error` response.
    Remote(String),
    /// The server answered with a well-formed but unexpected response type.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(error) => write!(f, "transport error: {error}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
            ClientError::Remote(message) => write!(f, "server error: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(error: io::Error) -> Self {
        ClientError::Io(error)
    }
}

/// A connected scheduler-service client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Request/response framing sends small bursts; Nagle buys nothing
        // and costs a delayed-ACK round trip per frame.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request frame and reads one response frame.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure (including the server
    /// closing the connection mid-exchange), [`ClientError::Protocol`] if
    /// the response does not parse.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut frame = begin_frame(0);
        request.write(&mut Writer::compact(&mut frame));
        send_frame(&mut self.stream, &mut frame)?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))
        })?;
        Response::from_json(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Requests a schedule.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server reports a synthesis or
    /// admission failure; transport/protocol errors as in
    /// [`Client::roundtrip`].
    pub fn synthesize(&mut self, request: SynthesizeRequest) -> Result<ScheduleReply, ClientError> {
        match self.roundtrip(&Request::Synthesize(Box::new(request)))? {
            Response::Schedule(reply) => Ok(*reply),
            Response::Error { message } => Err(ClientError::Remote(message)),
            Response::Stats(_) => Err(ClientError::Unexpected("stats")),
            Response::ShutdownAck => Err(ClientError::Unexpected("shutdown-ack")),
        }
    }

    /// Requests an incremental re-synthesis from a cached predecessor.
    ///
    /// # Errors
    ///
    /// As [`Client::synthesize`].
    pub fn resynthesize(
        &mut self,
        request: ResynthesizeRequest,
    ) -> Result<ScheduleReply, ClientError> {
        match self.roundtrip(&Request::Resynthesize(Box::new(request)))? {
            Response::Schedule(reply) => Ok(*reply),
            Response::Error { message } => Err(ClientError::Remote(message)),
            Response::Stats(_) => Err(ClientError::Unexpected("stats")),
            Response::ShutdownAck => Err(ClientError::Unexpected("shutdown-ack")),
        }
    }

    /// Fetches the service counters.
    ///
    /// # Errors
    ///
    /// As [`Client::roundtrip`], plus [`ClientError::Unexpected`] for a
    /// non-stats response.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            Response::Error { message } => Err(ClientError::Remote(message)),
            Response::Schedule(_) => Err(ClientError::Unexpected("schedule")),
            Response::ShutdownAck => Err(ClientError::Unexpected("shutdown-ack")),
        }
    }

    /// Asks the server to shut down; returns once it acknowledges.
    ///
    /// # Errors
    ///
    /// As [`Client::roundtrip`], plus [`ClientError::Unexpected`] for a
    /// non-acknowledgement response.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            Response::Error { message } => Err(ClientError::Remote(message)),
            Response::Schedule(_) => Err(ClientError::Unexpected("schedule")),
            Response::Stats(_) => Err(ClientError::Unexpected("stats")),
        }
    }
}
