//! The fabric client: submit experiment points, collect results.
//!
//! [`Client`] wraps one connection to a [`crate::daemon::Daemon`]. The
//! protocol is pipelined — submit any number of points, then collect the
//! responses in whatever order the daemon finishes them; client-assigned
//! ids correlate them. [`Client::run_each`] does exactly that and hands
//! back each point's result or error in submission order;
//! [`Client::run_points`] fails on the first error instead. Both retry
//! submissions the daemon's bounded admission queue shed with
//! [`Msg::Busy`], and drop late replies to an earlier batch that ended in
//! an error.

use crate::proto::{self, Msg, ProtoError};
use crate::sched::FabricReport;
use crate::spec::PointSpec;
use bvl_sim::RunResult;
use bvl_snap::snap_struct;
use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Cap on how long one `Busy` backoff sleeps, whatever the daemon
/// suggested — a corrupt or hostile hint must not stall a sweep.
const MAX_BUSY_BACKOFF: Duration = Duration::from_secs(1);

/// One finished point's result and how it was made: what a worker
/// reports when the point completes, and what its submitter sees, a
/// daemon's client and the in-process sweep alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServedResult {
    /// The (checked) simulation result.
    pub result: RunResult,
    /// Clock-domain edges processed cycle-by-cycle (0 for cache hits).
    pub edges_run: u64,
    /// Clock-domain edges batch-skipped (0 for cache hits).
    pub edges_skipped: u64,
    /// Host seconds a worker spent simulating (0 for cache hits).
    pub host_secs: f64,
    /// True when the result came from the memo/disk layer, or when this
    /// submission coalesced onto an execution another submission
    /// started — either way, no simulation work is attributable to it.
    pub cache_hit: bool,
    /// True when the execution resumed from a persisted checkpoint.
    pub resumed: bool,
    /// True when a decodable checkpoint blob did not restore (its
    /// fingerprints did not match this run, or its body did not fit the
    /// rebuilt system), so the point restarted from cycle 0. A blob that
    /// does not decode at all is skipped like a missing one and does not
    /// count.
    pub restarted_from_zero: bool,
}

snap_struct!(ServedResult {
    result,
    edges_run,
    edges_skipped,
    host_secs,
    cache_hit,
    resumed,
    restarted_from_zero,
});

/// A connection to the fabric daemon.
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    next_id: u64,
    busy_retries: u64,
}

impl Client {
    /// Connects to the daemon at `addr` (e.g. `"127.0.0.1:45123"`).
    ///
    /// # Errors
    ///
    /// Socket resolution/connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = writer.try_clone()?;
        Ok(Client {
            reader,
            writer,
            next_id: 1,
            busy_retries: 0,
        })
    }

    /// How many submissions the daemon shed with [`Msg::Busy`] and this
    /// client retried to completion.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Submits one point; returns the correlation id its response will
    /// carry.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn submit(&mut self, spec: &PointSpec) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.submit_as(id, spec)?;
        Ok(id)
    }

    /// (Re)submits a point under an explicit id — the `Busy` retry
    /// path, where the original correlation id must be preserved.
    fn submit_as(&mut self, id: u64, spec: &PointSpec) -> io::Result<()> {
        let spec = spec.clone();
        proto::write_msg(&mut self.writer, &Msg::Submit { id, spec })
    }

    /// Reads the next message from the daemon.
    ///
    /// # Errors
    ///
    /// Any [`ProtoError`], including a clean EOF if the daemon goes
    /// away.
    pub fn recv(&mut self) -> Result<Msg, ProtoError> {
        proto::read_msg(&mut self.reader)
    }

    /// [`Client::run_each`], failing on the first failed point.
    ///
    /// # Errors
    ///
    /// The first failed point in submission order, with its key in the
    /// message, and every error of [`Client::run_each`].
    pub fn run_points(&mut self, specs: &[PointSpec]) -> Result<Vec<ServedResult>, String> {
        let replies = self.run_each(specs)?.into_iter().zip(specs);
        replies
            .map(|(reply, spec)| reply.map_err(|e| format!("{}: {e}", spec.key())))
            .collect()
    }

    /// Submits all `specs` (pipelined), then collects every reply in
    /// submission order: each point's result, or its worker's error.
    /// Submissions the daemon shed with [`Msg::Busy`] are retried after
    /// the suggested backoff. Replies to an earlier batch on this
    /// connection, left unread when that batch ended in an error, are
    /// dropped.
    ///
    /// # Errors
    ///
    /// A protocol or socket error, and a reply to an id this connection
    /// never issued.
    pub fn run_each(
        &mut self,
        specs: &[PointSpec],
    ) -> Result<Vec<Result<ServedResult, String>>, String> {
        // This batch's ids are `first..end`, in submission order; lower
        // ids belong to earlier batches.
        let first = self.next_id;
        for spec in specs {
            self.submit(spec)
                .map_err(|e| format!("submit {}: {e}", spec.key()))?;
        }
        let end = self.next_id;
        let mut by_id = HashMap::with_capacity(specs.len());
        while by_id.len() < specs.len() {
            let msg = self.recv().map_err(|e| format!("fabric: {e}"))?;
            let (Msg::Done { id, .. } | Msg::Busy { id, .. } | Msg::Failed { id, .. }) = msg else {
                return Err(format!("unexpected fabric message: {msg:?}"));
            };
            if id >= end {
                return Err(format!(
                    "fabric: reply to id {id}, never issued on this connection"
                ));
            }
            let Some(idx) = id.checked_sub(first).map(|i| i as usize) else {
                continue; // a late reply to an earlier batch
            };
            match msg {
                Msg::Done { served, .. } => {
                    by_id.insert(id, Ok(served));
                }
                Msg::Failed { error, .. } => {
                    by_id.insert(id, Err(error));
                }
                Msg::Busy { retry_after_ms, .. } => {
                    self.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms).min(MAX_BUSY_BACKOFF));
                    self.submit_as(id, &specs[idx])
                        .map_err(|e| format!("resubmit {}: {e}", specs[idx].key()))?;
                }
                _ => unreachable!("only replies carry an id"),
            }
        }
        Ok((first..end)
            .map(|id| by_id.remove(&id).expect("collected every id"))
            .collect())
    }

    /// Fetches a [`FabricReport`] snapshot. Only call this with no
    /// submissions outstanding on this connection — the reply is read
    /// inline, and any interleaved `Done` for an outstanding submission
    /// would be discarded.
    ///
    /// # Errors
    ///
    /// Transport/codec failures.
    pub fn stats(&mut self) -> Result<FabricReport, ProtoError> {
        proto::write_msg(&mut self.writer, &Msg::QueryStats).map_err(ProtoError::Io)?;
        loop {
            if let Msg::Stats { report } = self.recv()? {
                return Ok(report);
            }
        }
    }

    /// Asks the daemon to shut down and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Socket or protocol failures before the ack arrives.
    pub fn shutdown(mut self) -> Result<(), ProtoError> {
        proto::write_msg(&mut self.writer, &Msg::Shutdown).map_err(ProtoError::Io)?;
        loop {
            match self.recv()? {
                Msg::ShutdownAck => return Ok(()),
                _ => continue, // drain late responses
            }
        }
    }
}
