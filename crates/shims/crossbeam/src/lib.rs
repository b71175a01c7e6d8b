//! Offline shim for `crossbeam::channel`, the one part of the external
//! crate this workspace uses. Scoped threads come from
//! [`std::thread::scope`] (stabilised in Rust 1.63).

/// Offline shim for `crossbeam::channel`: multi-producer *multi-consumer*
/// unbounded channels, backed by a `Mutex<VecDeque>` + `Condvar` queue.
///
/// Differences from real crossbeam: no `select!` and no bounded channels.
/// A blocked `recv` *sleeps on the condvar with the lock released* — a
/// send wakes exactly one waiter, and sibling consumers sharing the queue
/// interleave at the OS scheduler's granularity. (An earlier revision
/// polled `std::sync::mpsc` with a 1 ms timeout while holding the shared
/// receiver mutex, which serialized worker pools on multi-core hosts.)
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every receiver is gone; the
    /// unsent message is handed back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message queued.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently queued.
        Empty,
        /// No message is queued and every sender is gone.
        Disconnected,
    }

    /// Queue state behind the channel mutex.
    #[derive(Debug)]
    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// The shared channel core.
    #[derive(Debug)]
    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Signalled on every send (one waiter) and on the last sender
        /// hanging up (all waiters, so blocked `recv`s observe disconnect).
        ready: Condvar,
    }

    /// The sending half; clone freely across producer threads.
    #[derive(Debug)]
    pub struct Sender<T>(Arc<Chan<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                // Every blocked consumer must wake to report disconnect.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message.
        ///
        /// # Errors
        ///
        /// Returns the message back when every receiver has been dropped.
        ///
        /// # Panics
        ///
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(t));
            }
            st.queue.push_back(t);
            drop(st);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    /// The receiving half; clone it to share one queue between several
    /// consumers (each message is delivered to exactly one).
    #[derive(Debug)]
    pub struct Receiver<T>(Arc<Chan<T>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.state.lock().unwrap().receivers -= 1;
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone. The
        /// wait releases the channel lock, so sibling consumers run truly
        /// concurrently.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] when the channel is empty and closed.
        ///
        /// # Panics
        ///
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(t) = st.queue.pop_front() {
                    return Ok(t);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.ready.wait(st).unwrap();
            }
        }

        /// Blocks like [`Receiver::recv`], but gives up once `timeout` has
        /// elapsed with nothing queued. The deadline is absolute (computed
        /// once up front), so spurious condvar wakeups do not extend the
        /// wait.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when the deadline passes,
        /// [`RecvTimeoutError::Disconnected`] when the channel is empty and
        /// every sender is gone.
        ///
        /// # Panics
        ///
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now().checked_add(timeout);
            let mut st = self.0.state.lock().unwrap();
            loop {
                if let Some(t) = st.queue.pop_front() {
                    return Ok(t);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                // None: the deadline overflowed Instant — wait unbounded,
                // matching `recv` (effectively "forever").
                let Some(deadline) = deadline else {
                    st = self.0.ready.wait(st).unwrap();
                    continue;
                };
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self.0.ready.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }

        /// Dequeues a message if one is ready.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued,
        /// [`TryRecvError::Disconnected`] when the channel is also closed.
        ///
        /// # Panics
        ///
        /// Panics if the channel mutex was poisoned by a panicking peer.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.state.lock().unwrap();
            match st.queue.pop_front() {
                Some(t) => Ok(t),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// A non-blocking iterator over the messages currently queued:
        /// stops at the first [`Receiver::try_recv`] miss (empty *or*
        /// disconnected), never waits.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self)
        }

        /// A blocking iterator: yields messages until the channel is empty
        /// and every sender is gone (the streaming-consumer loop).
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    #[derive(Debug)]
    pub struct TryIter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    #[derive(Debug)]
    pub struct Iter<'a, T>(&'a Receiver<T>);

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    /// Creates an unbounded multi-producer multi-consumer channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_round_trips_in_order_single_consumer() {
        let (tx, rx) = super::channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(super::channel::RecvError));
    }

    #[test]
    fn cloned_receivers_share_one_queue() {
        let (tx, rx) = super::channel::unbounded();
        let rx2 = rx.clone();
        let total = 200u64;
        let consumed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for rx in [rx, rx2] {
                let consumed = &consumed;
                s.spawn(move || {
                    while rx.recv().is_ok() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
            for i in 0..total {
                tx.send(i).unwrap();
            }
            drop(tx);
        });
        // Every message is delivered to exactly one consumer.
        assert_eq!(consumed.load(std::sync::atomic::Ordering::SeqCst), total);
    }

    #[test]
    fn try_recv_reports_empty_then_disconnected() {
        let (tx, rx) = super::channel::unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(super::channel::TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert_eq!(
            rx.try_recv(),
            Err(super::channel::TryRecvError::Disconnected)
        );
    }

    #[test]
    fn try_iter_drains_ready_messages_without_blocking() {
        let (tx, rx) = super::channel::unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        let drained: Vec<i32> = rx.try_iter().collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        // Channel still open: try_iter stops instead of waiting.
        assert_eq!(rx.try_iter().next(), None);
        tx.send(9).unwrap();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn blocking_iter_ends_on_disconnect() {
        let (tx, rx) = super::channel::unbounded();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..20 {
                    tx.send(i).unwrap();
                }
                // tx dropped here; iter() must terminate.
            });
            let got: Vec<i32> = rx.iter().collect();
            assert_eq!(got, (0..20).collect::<Vec<_>>());
        });
    }

    #[test]
    fn send_to_dropped_receiver_hands_message_back() {
        let (tx, rx) = super::channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(42), Err(super::channel::SendError(42)));
    }

    #[test]
    fn parked_sibling_consumers_wake_one_per_message() {
        // Both consumers block on an empty queue first (no messages to
        // grab eagerly), then each send must wake exactly one of them —
        // the condvar handoff the old poll-under-lock recv serialized.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        let (tx, rx) = super::channel::unbounded();
        let rx2 = rx.clone();
        let parked = Barrier::new(3);
        let consumed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for rx in [rx, rx2] {
                let (consumed, parked) = (&consumed, &parked);
                s.spawn(move || {
                    parked.wait();
                    while rx.recv().is_ok() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            parked.wait();
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
            drop(tx);
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn recv_timeout_returns_queued_message_immediately() {
        let (tx, rx) = super::channel::unbounded();
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(5));
    }

    #[test]
    fn recv_timeout_times_out_on_open_empty_channel() {
        let (tx, rx) = super::channel::unbounded::<u8>();
        let start = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_millis(30)),
            Err(super::channel::RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        // The channel is still usable afterwards.
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(1));
    }

    #[test]
    fn recv_timeout_reports_disconnect_not_timeout() {
        let (tx, rx) = super::channel::unbounded::<u8>();
        drop(tx);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Err(super::channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_send_before_deadline() {
        let (tx, rx) = super::channel::unbounded();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                tx.send(77).unwrap();
            });
            // Far longer than the send delay: a condvar wakeup, not the
            // deadline, must deliver the message.
            assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(30)), Ok(77));
        });
    }

    #[test]
    fn sender_clone_and_drop_tracks_disconnect() {
        let (tx, rx) = super::channel::unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(1).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(super::channel::RecvError));
    }
}
