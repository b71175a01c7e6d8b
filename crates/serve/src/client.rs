//! Blocking client for the serve wire protocol.
//!
//! [`SearchClient`] wraps any [`Transport`] (in-process duplex from
//! [`crate::Server::connect`], or TCP via [`SearchClient::connect_tcp`])
//! and speaks the frame protocol: hello handshake, submit, event
//! streaming, re-attach after a disconnect. Frames that arrive out of
//! band while waiting for something specific — events for another
//! request, prune broadcasts, drain notices — are parked internally and
//! replayed to the call that wants them, so interleaved multi-request
//! traffic on one connection never loses frames.

use crate::transport::{TcpTransport, Transport, TransportError};
use hgnas_core::{SearchConfig, TaskConfig};
use hgnas_device::DeviceKind;
use hgnas_fleet::wire::{self, ClientFrame, ServerFrame, WireReport};
use hgnas_fleet::{CodecError, FleetEvent, PruneReport, ScenarioSpec};
use std::collections::VecDeque;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or timed out.
    Transport(TransportError),
    /// A frame failed to decode.
    Codec(CodecError),
    /// The server refused the request (`request_id` 0 = the connection).
    Rejected {
        /// Which request, 0 for connection-level refusals.
        request_id: u64,
        /// The server's reason.
        reason: String,
    },
    /// The daemon drained before the awaited request finished; the listed
    /// requests parked with checkpoints persisted and can be resubmitted.
    Drained(Vec<u64>),
    /// A frame that makes no sense at this point of the protocol.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Codec(e) => write!(f, "codec: {e}"),
            ClientError::Rejected { request_id, reason } => {
                write!(f, "rejected (request {request_id}): {reason}")
            }
            ClientError::Drained(parked) => {
                write!(f, "server drained with {} request(s) parked", parked.len())
            }
            ClientError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// A connected protocol client. See the module docs; construct with
/// [`crate::Server::connect`] (in-process) or [`SearchClient::connect_tcp`].
pub struct SearchClient {
    transport: Box<dyn Transport>,
    /// Frames read while waiting for something else, oldest first.
    parked: VecDeque<ServerFrame>,
    /// Prune broadcasts observed on this connection.
    prunes: Vec<PruneReport>,
}

impl SearchClient {
    /// Wraps an already-connected transport.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        SearchClient {
            transport,
            parked: VecDeque::new(),
            prunes: Vec::new(),
        }
    }

    /// Connects over TCP to a daemon's [`crate::Server::listen`] address.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] if the connection cannot be established.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> Result<Self, ClientError> {
        Ok(SearchClient::new(Box::new(TcpTransport::connect(addr)?)))
    }

    /// Prune broadcasts seen so far on this connection.
    pub fn prune_reports(&self) -> &[PruneReport] {
        &self.prunes
    }

    /// Reads the next frame off the wire (not the parked queue).
    fn read_frame(&mut self, timeout: Duration) -> Result<ServerFrame, ClientError> {
        let bytes = self.transport.recv_timeout(timeout)?;
        Ok(wire::decode_server(&bytes)?)
    }

    /// Parks a frame for a later call, tallying prune broadcasts.
    fn park(&mut self, frame: ServerFrame) {
        if let ServerFrame::Pruned { report } = &frame {
            self.prunes.push(*report);
        }
        self.parked.push_back(frame);
    }

    /// Sends `Hello` and waits for the ack; returns the server's protocol
    /// version.
    ///
    /// # Errors
    ///
    /// Transport/codec failures, or [`ClientError::Rejected`].
    pub fn hello(
        &mut self,
        tenant: &str,
        priority: u8,
        timeout: Duration,
    ) -> Result<u8, ClientError> {
        self.transport
            .send(&wire::encode_client(&ClientFrame::Hello {
                tenant: tenant.to_string(),
                priority,
            }))?;
        loop {
            match self.read_frame(timeout)? {
                ServerFrame::HelloAck { protocol } => return Ok(protocol),
                ServerFrame::Rejected { request_id, reason } => {
                    return Err(ClientError::Rejected { request_id, reason })
                }
                other => self.park(other),
            }
        }
    }

    /// Submits a search over `devices` and waits for the `Accepted` ack;
    /// returns `(request_id, shard_count)`.
    ///
    /// # Errors
    ///
    /// Transport/codec failures, or [`ClientError::Rejected`] (e.g.
    /// submit before hello).
    pub fn submit(
        &mut self,
        task: &TaskConfig,
        config: &SearchConfig,
        devices: &[DeviceKind],
        timeout: Duration,
    ) -> Result<(u64, usize), ClientError> {
        self.submit_frame(
            ClientFrame::Submit {
                task: task.clone(),
                config: config.clone(),
                devices: devices.to_vec(),
                scenarios: Vec::new(),
            },
            timeout,
        )
    }

    /// Submits a search over explicit {task × objective × persona}
    /// scenarios (one engine shard each, see
    /// `hgnas_fleet::cross_scenarios`) and waits for the `Accepted` ack;
    /// returns `(request_id, shard_count)`.
    ///
    /// # Errors
    ///
    /// As [`SearchClient::submit`].
    pub fn submit_scenarios(
        &mut self,
        base_task: &TaskConfig,
        base_config: &SearchConfig,
        scenarios: &[ScenarioSpec],
        timeout: Duration,
    ) -> Result<(u64, usize), ClientError> {
        self.submit_frame(
            ClientFrame::Submit {
                task: base_task.clone(),
                config: base_config.clone(),
                devices: Vec::new(),
                scenarios: scenarios.to_vec(),
            },
            timeout,
        )
    }

    fn submit_frame(
        &mut self,
        frame: ClientFrame,
        timeout: Duration,
    ) -> Result<(u64, usize), ClientError> {
        self.transport.send(&wire::encode_client(&frame))?;
        loop {
            match self.read_frame(timeout)? {
                ServerFrame::Accepted { request_id, shards } => return Ok((request_id, shards)),
                ServerFrame::Rejected { request_id, reason } => {
                    return Err(ClientError::Rejected { request_id, reason })
                }
                other => self.park(other),
            }
        }
    }

    /// Asks the server to re-stream `request_id`'s events from `from_seq`
    /// onward (and the report, if already finished). Fire-and-forget: the
    /// replay arrives through [`SearchClient::next_event`] /
    /// [`SearchClient::wait_report`].
    ///
    /// # Errors
    ///
    /// Transport failures sending the frame.
    pub fn attach(
        &mut self,
        request_id: u64,
        tenant: &str,
        from_seq: u64,
    ) -> Result<(), ClientError> {
        self.transport
            .send(&wire::encode_client(&ClientFrame::Attach {
                request_id,
                tenant: tenant.to_string(),
                from_seq,
            }))?;
        Ok(())
    }

    /// Pops the first parked frame belonging to `request_id`.
    fn take_parked(&mut self, request_id: u64) -> Option<ServerFrame> {
        let pos = self.parked.iter().position(|f| match f {
            ServerFrame::Event { request_id: id, .. }
            | ServerFrame::Report { request_id: id, .. }
            | ServerFrame::Rejected { request_id: id, .. } => *id == request_id,
            ServerFrame::Drain { .. } => true,
            _ => false,
        })?;
        self.parked.remove(pos)
    }

    /// The next frame for `request_id`: `Ok(Ok((seq, event)))` for an
    /// event, `Ok(Err(report))` when the final report arrives.
    ///
    /// # Errors
    ///
    /// Transport/codec failures, [`ClientError::Rejected`] if the request
    /// failed server-side, [`ClientError::Drained`] if the daemon shut
    /// down first.
    #[allow(clippy::type_complexity)]
    pub fn next_event(
        &mut self,
        request_id: u64,
        timeout: Duration,
    ) -> Result<Result<(u64, FleetEvent), WireReport>, ClientError> {
        loop {
            let frame = match self.take_parked(request_id) {
                Some(f) => f,
                None => self.read_frame(timeout)?,
            };
            match frame {
                ServerFrame::Event {
                    request_id: id,
                    seq,
                    event,
                } if id == request_id => return Ok(Ok((seq, event))),
                ServerFrame::Report {
                    request_id: id,
                    report,
                } if id == request_id => return Ok(Err(report)),
                ServerFrame::Rejected {
                    request_id: id,
                    reason,
                } if id == request_id => {
                    return Err(ClientError::Rejected {
                        request_id: id,
                        reason,
                    })
                }
                ServerFrame::Drain { parked } => return Err(ClientError::Drained(parked)),
                other => self.park(other),
            }
        }
    }

    /// Streams `request_id`'s events through `on_event(seq, &event)` until
    /// the final report arrives, then returns it. `timeout` bounds the
    /// wait *per frame*, not end to end.
    ///
    /// # Errors
    ///
    /// As [`SearchClient::next_event`].
    pub fn wait_report(
        &mut self,
        request_id: u64,
        timeout: Duration,
        mut on_event: impl FnMut(u64, &FleetEvent),
    ) -> Result<WireReport, ClientError> {
        loop {
            match self.next_event(request_id, timeout)? {
                Ok((seq, event)) => on_event(seq, &event),
                Err(report) => return Ok(report),
            }
        }
    }

    /// Waits for a [`ServerFrame::Pruned`] broadcast (parked ones count)
    /// and returns its report.
    ///
    /// # Errors
    ///
    /// Transport/codec failures while waiting.
    pub fn wait_pruned(&mut self, timeout: Duration) -> Result<PruneReport, ClientError> {
        if let Some(pos) = self
            .parked
            .iter()
            .position(|f| matches!(f, ServerFrame::Pruned { .. }))
        {
            if let Some(ServerFrame::Pruned { report }) = self.parked.remove(pos) {
                return Ok(report);
            }
        }
        loop {
            match self.read_frame(timeout)? {
                ServerFrame::Pruned { report } => {
                    self.prunes.push(report);
                    return Ok(report);
                }
                other => self.park(other),
            }
        }
    }

    /// Says goodbye; the server closes the connection.
    ///
    /// # Errors
    ///
    /// Transport failures sending the frame.
    pub fn bye(&mut self) -> Result<(), ClientError> {
        self.transport
            .send(&wire::encode_client(&ClientFrame::Bye))?;
        Ok(())
    }
}

impl Drop for SearchClient {
    fn drop(&mut self) {
        // Dropping the client is a disconnect: the server detaches the
        // connection and keeps buffering for a later re-attach.
        self.transport.close();
    }
}
