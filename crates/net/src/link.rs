//! Request/response links between client and server.
//!
//! Two flavours:
//!
//! * [`MeteredLink`] — a synchronous in-process link: the client calls the
//!   server's handler directly, with every exchange recorded on a
//!   [`crate::meter::Meter`]. The SSE protocols run over this in tests and
//!   experiments (deterministic, zero scheduling noise).
//! * [`Duplex`] — the same `Service` on its own thread, reached over a
//!   pair of `std::sync::mpsc` channels that carry whole messages (no
//!   framing: nothing in between splits or coalesces them), showing that
//!   it runs unchanged behind a real concurrent boundary.

use crate::meter::Meter;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Client-side view of a request/response channel. Implemented by
/// [`MeteredLink`] (synchronous, in-process), [`Duplex`] (threaded) and the
/// TCP transport, so protocol clients are written once and run over any.
pub trait Transport {
    /// Execute one round: send `request`, block for the response.
    ///
    /// # Errors
    /// An error means the round **failed in transit** — dropped, truncated,
    /// connection lost — and the caller must treat the request's server-side
    /// effect as unknown. Implementations never silently retransmit: the SSE
    /// index mutations are not idempotent, so at-most-once delivery is part
    /// of the transport contract.
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>>;

    /// Execute a batch of mutation rounds, returning their responses. The
    /// default sends the parts as individual rounds, one response per
    /// part, stopping at the first transit failure — exactly the
    /// behaviour a caller looping over [`Transport::round_trip`] would
    /// get, so links that cannot coalesce lose nothing. Transports with a
    /// wire-level batch op (the TCP transport's `UPDATE_MANY`) override
    /// this to ship all parts in a single round and have the server
    /// journal them per index shard; they may return the batch's one
    /// response, which stands for every part (a non-empty batch always
    /// gets at least one).
    /// Searches need no transport batch: each scheme batches its own
    /// (Scheme 2 `SearchMany`, Scheme 1 `GetNonces` + `SearchRevealMany`)
    /// inside one request sent through [`Transport::round_trip`].
    ///
    /// # Errors
    /// As [`Transport::round_trip`]; on error, any prefix of the batch may
    /// already have taken effect server-side.
    fn round_trip_batch(&mut self, parts: &[Vec<u8>]) -> std::io::Result<Vec<Vec<u8>>> {
        parts.iter().map(|p| self.round_trip(p)).collect()
    }
}

impl<S: Service> Transport for MeteredLink<S> {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(self.call(request))
    }
}

impl Transport for Duplex {
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        self.try_call(request)
    }
}

/// A request/response server: the SSE server implements this.
pub trait Service: Send {
    /// Handle one request message, producing the response message.
    fn handle(&mut self, request: &[u8]) -> Vec<u8>;

    /// Called exactly once when the hosting transport shuts down (for a
    /// [`Duplex`], when the client hangs up). Durable servers override
    /// this to checkpoint so a clean shutdown leaves no WAL to replay.
    fn on_shutdown(&mut self) {}
}

impl<F> Service for F
where
    F: FnMut(&[u8]) -> Vec<u8> + Send,
{
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// Synchronous metered link to a service.
pub struct MeteredLink<S: Service> {
    service: S,
    meter: Meter,
}

impl<S: Service> MeteredLink<S> {
    /// Wrap `service`, recording traffic on `meter`.
    pub fn new(service: S, meter: Meter) -> Self {
        MeteredLink { service, meter }
    }

    /// One round: send `request`, get the response.
    pub fn call(&mut self, request: &[u8]) -> Vec<u8> {
        let response = self.service.handle(request);
        self.meter.record_round(request.len(), response.len());
        response
    }

    /// The shared meter.
    #[must_use]
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Access the wrapped service (e.g. for test inspection).
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }

    /// Unwrap the service.
    pub fn into_service(self) -> S {
        self.service
    }
}

/// Slot holding the server thread's join handle; shared between the
/// [`Duplex`] (joins on drop) and the [`ServerHandle`] (explicit join).
/// Whichever side takes the handle first performs the join.
type JoinSlot = Arc<Mutex<Option<JoinHandle<()>>>>;

/// Client handle to a service running on its own thread.
///
/// Dropping the `Duplex` hangs up the request channel, which ends the
/// server loop (the service's [`Service::on_shutdown`] runs then), and
/// **joins** the thread: no detached thread outlives the link.
pub struct Duplex {
    /// `None` only inside `drop`, which hangs up before it joins.
    tx: Option<Sender<Vec<u8>>>,
    rx: Receiver<Vec<u8>>,
    meter: Meter,
    join: JoinSlot,
}

/// Handle used to join the server thread after the client hangs up.
/// Optional since the [`Duplex`] itself joins on drop; kept for callers
/// that want to observe the join point explicitly.
pub struct ServerHandle {
    join: JoinSlot,
}

impl ServerHandle {
    /// Wait for the server thread to finish (it exits when the client side
    /// is dropped). A no-op if the dropped `Duplex` already joined it.
    ///
    /// # Panics
    /// Panics if the server thread panicked.
    pub fn join(self) {
        let handle = self
            .join
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            handle.join().expect("server thread panicked");
        }
    }
}

impl Duplex {
    /// Spawn `service` on a background thread and return the client link.
    pub fn spawn<S: Service + 'static>(mut service: S, meter: Meter) -> (Duplex, ServerHandle) {
        let (req_tx, req_rx) = channel::<Vec<u8>>();
        let (resp_tx, resp_rx) = channel::<Vec<u8>>();
        let join = std::thread::spawn(move || {
            // Ends when the client hangs up (or stops listening).
            for request in req_rx {
                if resp_tx.send(service.handle(&request)).is_err() {
                    break;
                }
            }
            // Every exit path lands here: give durable services their
            // chance to checkpoint unflushed state before the thread dies.
            service.on_shutdown();
        });
        let join: JoinSlot = Arc::new(Mutex::new(Some(join)));
        (
            Duplex {
                tx: Some(req_tx),
                rx: resp_rx,
                meter,
                join: join.clone(),
            },
            ServerHandle { join },
        )
    }

    /// One metered round over the threaded transport.
    ///
    /// # Panics
    /// Panics if the server thread has died (test environments only).
    pub fn call(&self, request: &[u8]) -> Vec<u8> {
        self.try_call(request).expect("server thread alive")
    }

    /// One metered round, surfacing a dead server thread as an error
    /// instead of panicking.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::BrokenPipe`] if the server thread is gone.
    pub fn try_call(&self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        fn gone<E>(_: E) -> std::io::Error {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "server thread exited")
        }
        let tx = self.tx.as_ref().expect("the sender lives until drop");
        tx.send(request.to_vec()).map_err(gone)?;
        let response = self.rx.recv().map_err(gone)?;
        self.meter.record_round(request.len(), response.len());
        Ok(response)
    }

    /// The shared meter.
    #[must_use]
    pub fn meter(&self) -> &Meter {
        &self.meter
    }
}

impl Drop for Duplex {
    fn drop(&mut self) {
        // Hang up first: the server loop's `recv` then fails and it exits.
        drop(self.tx.take());
        let handle = self
            .join
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            // Swallow a server panic here: panicking in drop would abort.
            // ServerHandle::join (if still held) sees an empty slot.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metered_link_counts_rounds() {
        let meter = Meter::new();
        let mut link = MeteredLink::new(
            |req: &[u8]| {
                let mut r = req.to_vec();
                r.reverse();
                r
            },
            meter.clone(),
        );
        assert_eq!(link.call(b"abc"), b"cba");
        assert_eq!(link.call(b"hello"), b"olleh");
        let s = meter.snapshot();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.bytes_up, 8);
        assert_eq!(s.bytes_down, 8);
    }

    #[test]
    fn stateful_service_keeps_state() {
        struct Counter(u64);
        impl Service for Counter {
            fn handle(&mut self, _req: &[u8]) -> Vec<u8> {
                self.0 += 1;
                self.0.to_le_bytes().to_vec()
            }
        }
        let mut link = MeteredLink::new(Counter(0), Meter::new());
        link.call(b"");
        link.call(b"");
        let third = link.call(b"");
        assert_eq!(u64::from_le_bytes(third.try_into().unwrap()), 3);
        assert_eq!(link.into_service().0, 3);
    }

    #[test]
    fn duplex_round_trips_across_threads() {
        let meter = Meter::new();
        let (client, handle) = Duplex::spawn(
            |req: &[u8]| {
                let mut r = b"echo:".to_vec();
                r.extend_from_slice(req);
                r
            },
            meter.clone(),
        );
        for i in 0..20u8 {
            let resp = client.call(&[i]);
            assert_eq!(resp, [b"echo:".as_slice(), &[i]].concat());
        }
        assert_eq!(meter.snapshot().rounds, 20);
        drop(client);
        handle.join();
    }

    #[test]
    fn duplex_handles_large_messages() {
        let (client, handle) = Duplex::spawn(|req: &[u8]| req.to_vec(), Meter::new());
        let big = vec![0x42u8; 1 << 20];
        assert_eq!(client.call(&big), big);
        drop(client);
        handle.join();
    }
}
