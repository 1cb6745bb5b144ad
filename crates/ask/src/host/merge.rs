//! The receiver's merge worker: one thread per receiving daemon that owns
//! the residual tables of its receive tasks and merges into them, off the
//! simulation thread.
//!
//! The paper's host daemon (§4) merges every tuple the switch could not
//! absorb into a result buffer on its own machine, and no simulated event
//! reads that buffer: the protocol counts residual tuples, it never looks
//! one up. So the daemon only copies each residual tuple into a batch
//! ([`Merger::push`]) and the worker applies the batches in the order they
//! were pushed. Every table therefore sees the merge sequence an inline
//! table would.
//!
//! - **Batches** are byte records `u32 task · u8 op · u16 len · key · u32
//!   value`, shipped every [`BATCH_TUPLES`] tuples through a queue that
//!   holds [`QUEUED_BATCHES`] messages: a worker that falls behind holds
//!   the simulation back instead of queueing a whole run.
//! - **Handoff.** The queue is a ring allocated when the worker starts,
//!   behind a mutex with one condition variable. Neither a send nor a wait
//!   allocates, so what a run allocates does not depend on which thread
//!   happens to wait for the other.
//! - **Order.** An epoch resync flushes the batch, then clears the task's
//!   table ([`Merger::clear`]); completion flushes, then asks for the table
//!   ([`Merger::finish`]), which the [`TaskResult`] resolves on first read.
//! - **Lifecycle.** The thread starts with the first batch shipped, so a
//!   daemon that never merges starts none. Dropping the [`Merger`] hangs
//!   up and joins the thread once it has applied every queued message. A
//!   panic on the worker is re-raised on the thread that next sends to it,
//!   waits for one of its tables, or drops it — unless that thread is
//!   already panicking.

use crate::fasthash::FastMap;
use crate::host::table::TaskTable;
use ask_simnet::time::SimTime;
use ask_wire::key::Key;
use ask_wire::packet::{AggregateOp, TaskId};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Tuples per shipped batch.
const BATCH_TUPLES: usize = 1024;

/// Messages queued for the worker before a send waits for it.
const QUEUED_BATCHES: usize = 16;

/// Bytes of a batch record besides the key: task, op, length and value.
const RECORD_BYTES: usize = 4 + 1 + 2 + 4;

/// What the daemon sends its worker, applied in order.
#[derive(Debug)]
enum Msg {
    /// Records to merge, in the layout of the module documentation.
    Batch(Vec<u8>),
    /// Empties the task's table, keeping its capacity (epoch resync).
    Clear(TaskId),
    /// Hands the task's table over; nothing merges into it afterwards.
    Finish(TaskId, Arc<OnceLock<TaskTable>>),
}

/// The queue between the daemon and its worker.
#[derive(Debug)]
struct Queue {
    msgs: VecDeque<Msg>,
    /// The daemon dropped its [`Merger`]: nothing more will be queued.
    hung_up: bool,
    /// The worker returned or panicked: nothing more will be applied.
    stopped: bool,
    /// Taken by the first join.
    thread: Option<JoinHandle<()>>,
}

/// The worker thread and its queue, shared by the merger that feeds it
/// and by every result still waiting for a table from it.
#[derive(Debug)]
struct Worker {
    queue: Mutex<Queue>,
    /// Signalled when the queue changes or a message has been applied.
    changed: Condvar,
}

impl Worker {
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `done` holds for the queue, then returns the guard —
    /// or, once the worker has stopped, joins it and panics.
    fn wait_until(&self, mut done: impl FnMut(&Queue) -> bool) -> MutexGuard<'_, Queue> {
        let mut queue = self.queue();
        while !done(&queue) {
            if queue.stopped {
                drop(queue);
                self.join();
                panic!("the merge worker stopped");
            }
            queue = self
                .changed
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
        queue
    }

    /// Waits for the thread to end and re-raises its panic, unless this
    /// thread is already panicking. Only the first call joins.
    fn join(&self) {
        let handle = self.queue().thread.take();
        if let Some(Err(payload)) = handle.map(JoinHandle::join) {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The daemon's side of the merge worker: the batch being filled and, once
/// one has shipped, the worker.
#[derive(Debug, Default)]
pub(crate) struct Merger {
    batch: Vec<u8>,
    tuples: usize,
    worker: Option<Arc<Worker>>,
}

impl Merger {
    /// Queues `value` for merging under the key `key` into `task`'s table.
    /// `key` is a valid key, as every key parsed off the wire is.
    #[inline]
    pub(crate) fn push(&mut self, task: TaskId, op: AggregateOp, key: &[u8], value: u32) {
        let len = u16::try_from(key.len()).expect("key lengths fit the wire's u16 length field");
        self.batch.reserve(RECORD_BYTES + key.len());
        self.batch.extend_from_slice(&task.0.to_le_bytes());
        self.batch.push(op.to_code());
        self.batch.extend_from_slice(&len.to_le_bytes());
        self.batch.extend_from_slice(key);
        self.batch.extend_from_slice(&value.to_le_bytes());
        self.tuples += 1;
        if self.tuples == BATCH_TUPLES {
            self.flush();
        }
    }

    /// Empties `task`'s table once every tuple pushed before has merged.
    pub(crate) fn clear(&mut self, task: TaskId) {
        self.flush();
        if self.worker.is_some() {
            self.send(Msg::Clear(task));
        }
    }

    /// Completes `task`: its table, with every tuple pushed for it merged,
    /// becomes the result. Tuples pushed for it afterwards are lost.
    pub(crate) fn finish(&mut self, task: TaskId, completed_at: SimTime) -> TaskResult {
        self.flush();
        let table = Arc::new(OnceLock::new());
        if self.worker.is_some() {
            self.send(Msg::Finish(task, Arc::clone(&table)));
        } else {
            // Nothing ever merged on this host: the table is empty.
            let _ = table.set(TaskTable::new());
        }
        TaskResult {
            task,
            completed_at,
            table,
            worker: self.worker.clone(),
        }
    }

    /// Ships the batch, if it holds any tuple.
    fn flush(&mut self) {
        if self.tuples == 0 {
            return;
        }
        let capacity = self.batch.capacity();
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(capacity));
        self.tuples = 0;
        self.send(Msg::Batch(batch));
    }

    /// Queues `msg` for the worker, starting it on first use.
    fn send(&mut self, msg: Msg) {
        let worker = self.worker.get_or_insert_with(spawn);
        let room = |q: &Queue| !q.stopped && q.msgs.len() < QUEUED_BATCHES;
        let mut queue = worker.wait_until(room);
        queue.msgs.push_back(msg);
        drop(queue);
        worker.changed.notify_all();
    }
}

impl Drop for Merger {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            worker.queue().hung_up = true;
            worker.changed.notify_all();
            worker.join();
        }
    }
}

fn spawn() -> Arc<Worker> {
    let worker = Arc::new(Worker {
        queue: Mutex::new(Queue {
            msgs: VecDeque::with_capacity(QUEUED_BATCHES),
            hung_up: false,
            stopped: false,
            thread: None,
        }),
        changed: Condvar::new(),
    });
    let shared = Arc::clone(&worker);
    let thread = std::thread::Builder::new()
        .name("ask-merge".into())
        .spawn(move || work(&shared))
        .expect("the merge worker starts");
    worker.queue().thread = Some(thread);
    worker
}

/// Marks the worker stopped when its loop ends, by return or by panic, and
/// wakes everyone waiting on it.
struct Stopped<'a>(&'a Worker);

impl Drop for Stopped<'_> {
    fn drop(&mut self) {
        self.0.queue().stopped = true;
        self.0.changed.notify_all();
    }
}

/// The worker's loop: applies every message in order until the daemon
/// hangs up, then drops the tables of tasks that never finished.
fn work(worker: &Worker) {
    let _stopped = Stopped(worker);
    let mut tables: FastMap<TaskId, TaskTable> = FastMap::default();
    loop {
        let msg = worker
            .wait_until(|q| q.hung_up || !q.msgs.is_empty())
            .msgs
            .pop_front();
        let Some(msg) = msg else { return };
        match msg {
            Msg::Batch(batch) => merge_batch(&mut tables, &batch),
            Msg::Clear(task) => {
                if let Some(table) = tables.get_mut(&task) {
                    table.clear();
                }
            }
            Msg::Finish(task, result) => {
                let _ = result.set(tables.remove(&task).unwrap_or_default());
            }
        }
        // Taken under the lock, so a waiter that saw neither room nor its
        // table is already waiting when the signal comes.
        let _queue = worker.queue();
        worker.changed.notify_all();
    }
}

fn merge_batch(tables: &mut FastMap<TaskId, TaskTable>, mut rest: &[u8]) {
    while let [t0, t1, t2, t3, op, l0, l1, tail @ ..] = rest {
        let task = TaskId(u32::from_le_bytes([*t0, *t1, *t2, *t3]));
        let (key, tail) = tail.split_at(u16::from_le_bytes([*l0, *l1]) as usize);
        let (value, tail) = tail.split_at(4);
        let value = u32::from_le_bytes(value.try_into().expect("four bytes"));
        let table = tables.entry(task).or_default();
        table.merge(key, value, AggregateOp::from_code(*op));
        rest = tail;
    }
}

/// Completed aggregation result, exposed to the application: the task's
/// residual table itself, handed over by the receiver's merge worker at
/// completion and read in place (the paper's shared-memory result buffer,
/// §4). The first read waits for the worker to merge what the task
/// received; cloning shares the table.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The finished task.
    pub task: TaskId,
    /// Simulated completion time.
    pub completed_at: SimTime,
    table: Arc<OnceLock<TaskTable>>,
    /// The worker that sets `table`, `None` when it was set at completion.
    worker: Option<Arc<Worker>>,
}

impl TaskResult {
    fn table(&self) -> &TaskTable {
        if let Some(table) = self.table.get() {
            return table;
        }
        let worker = self.worker.as_ref().expect("an unset table has a worker");
        drop(worker.wait_until(|_| self.table.get().is_some()));
        self.table.get().expect("the worker set the table")
    }

    /// Number of distinct keys aggregated.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// True when the task aggregated no key.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// The aggregated value of `key` (wrapping 32-bit sums), if present.
    pub fn get(&self, key: &Key) -> Option<u32> {
        self.table().get(key)
    }

    /// Every `(key bytes, value)` entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        self.table().iter()
    }

    /// The entries as an owned key → value map, built in one sweep by
    /// [`TaskTable::to_map`].
    pub fn to_map(&self) -> HashMap<Key, u32> {
        self.table().to_map()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::packetizer::Packetizer;
    use ask_wire::codec::{FrameWriter, SendHeader};
    use ask_wire::packet::{ChannelId, KvTuple, PacketLayout, SeqNo};
    use ask_wire::view::{FrameView, PacketView};
    use bytes::Bytes;
    use std::hash::RandomState;
    use std::panic::AssertUnwindSafe;

    const TASKS: [(TaskId, AggregateOp); 2] =
        [(TaskId(1), AggregateOp::Sum), (TaskId(2), AggregateOp::Max)];

    /// Key `i` of a mix the packetizer puts in short slots, medium slots
    /// and long-kv frames.
    fn key(i: u64) -> Key {
        match i % 3 {
            0 => Key::from_u64(i + 1),
            1 => Key::from_str(&format!("medium-{i}")).unwrap(),
            _ => Key::from_str(&format!("{i}-a-key-longer-than-any-slot")).unwrap(),
        }
    }

    fn tuples(n: u64, salt: u64) -> Vec<KvTuple> {
        (0..n)
            .map(|i| KvTuple::new(key((i * 7 + salt) % 2_000), (i ^ salt) as u32))
            .collect()
    }

    /// A sender's stream of `task` as the frames the receiver gets: data
    /// frames for slot-sized keys, long-kv frames for the rest.
    fn stream_frames(task: TaskId, tuples: &[KvTuple]) -> Vec<Bytes> {
        let mut stream = Packetizer::new(PacketLayout::paper_default(), 8).begin_stream(tuples);
        let header = |seq| SendHeader {
            src: 1,
            dst: 0,
            epoch: 0,
            task,
            channel: ChannelId(256),
            seq: SeqNo(seq),
        };
        (0..)
            .map_while(|seq| stream.next_frame(&header(seq)))
            .map(|frame| frame.bytes)
            .collect()
    }

    fn fetch_reply(task: TaskId, tuples: &[KvTuple]) -> Bytes {
        let mut body = Vec::new();
        for t in tuples {
            body.extend_from_slice(&(t.key.len() as u16).to_be_bytes());
            body.extend_from_slice(t.key.as_bytes());
            body.extend_from_slice(&t.value.to_be_bytes());
        }
        let count = tuples.len() as u32;
        let mut reply = FrameWriter::fetch_reply(0, 1, 0, task, 1, count, body.len());
        reply.put(&body);
        reply.finish()
    }

    /// One step of a task's inline merge sequence.
    enum Inline {
        Merge(Vec<u8>, u32),
        Clear,
    }

    /// The worker, and per task the merge sequence an inline table gets.
    #[derive(Default)]
    struct Both {
        merger: Merger,
        inline: [Vec<Inline>; 2],
    }

    impl Both {
        /// Merges one received frame's slots or entries as the daemon's
        /// merge sites read them.
        fn frame(&mut self, ix: usize, frame: Bytes) {
            let (task, op) = TASKS[ix];
            let view = FrameView::parse(frame).expect("a valid frame");
            let mut merge = |key: &[u8], value: u32| {
                self.merger.push(task, op, key, value);
                self.inline[ix].push(Inline::Merge(key.to_vec(), value));
            };
            match view.packet() {
                PacketView::Data(d) => {
                    assert_eq!(d.task(), task);
                    for s in d.slots() {
                        merge(s.key_bytes(), s.value());
                    }
                }
                _ => {
                    for e in view.entries().expect("a long-kv frame or fetch reply") {
                        merge(e.key_bytes(), e.value());
                    }
                }
            }
        }

        /// A co-located sender's stream, which never crosses the wire.
        fn colocated(&mut self, ix: usize, tuples: &[KvTuple]) {
            let (task, op) = TASKS[ix];
            for t in tuples {
                self.merger.push(task, op, t.key.as_bytes(), t.value);
                self.inline[ix].push(Inline::Merge(t.key.as_bytes().to_vec(), t.value));
            }
        }

        /// Task `ix`'s inline sequence applied to a table under `state`.
        fn inline_table(&self, ix: usize, state: &RandomState) -> TaskTable {
            let mut table = TaskTable::with_hasher(state.clone());
            for step in &self.inline[ix] {
                match step {
                    Inline::Merge(key, value) => table.merge(key, *value, TASKS[ix].1),
                    Inline::Clear => table.clear(),
                }
            }
            table
        }
    }

    #[test]
    fn worker_applies_the_inline_merge_sequence() {
        // Two tasks under different operators, their frames interleaved as
        // a receiver sees them; thousands of tuples, so batches ship
        // mid-frame and the tables double several times.
        let mut both = Both::default();
        let streams: Vec<Vec<Bytes>> = TASKS
            .iter()
            .zip([3, 5])
            .map(|(&(task, _), salt)| stream_frames(task, &tuples(3_000, salt)))
            .collect();
        let data = streams[0]
            .iter()
            .filter(|f| {
                matches!(
                    FrameView::parse((*f).clone()).unwrap().packet(),
                    PacketView::Data(_)
                )
            })
            .count();
        assert!(
            0 < data && data < streams[0].len(),
            "data and long-kv frames"
        );
        let half = streams[0].len() / 2;
        for (first, second) in streams[0][..half].iter().zip(&streams[1]) {
            both.frame(0, first.clone());
            both.frame(1, second.clone());
        }
        // An epoch resync wipes task 1 mid-stream, keeping its capacity;
        // the sender's replay starts over.
        both.merger.clear(TASKS[0].0);
        both.inline[0].push(Inline::Clear);
        for frame in &streams[0] {
            both.frame(0, frame.clone());
        }
        for frame in &streams[1][half..] {
            both.frame(1, frame.clone());
        }
        both.colocated(1, &tuples(1_500, 11));
        for (ix, &(task, _)) in TASKS.iter().enumerate() {
            both.frame(ix, fetch_reply(task, &tuples(700, 13 + ix as u64)));
        }

        // Each result is read right after its `Finish`, the merger still
        // alive: the read waits for the complete table.
        for (ix, &(task, _)) in TASKS.iter().enumerate() {
            let result = both.merger.finish(task, SimTime::from_nanos(ix as u64));
            // Under the handed-over table's own hasher, the inline table
            // must match slot for slot.
            let inline = &both.inline_table(ix, result.to_map().hasher());
            assert!(inline.len() > 1_000);
            assert_eq!(result.len(), inline.len());
            let got: Vec<(&[u8], u32)> = result.iter().collect();
            let want: Vec<(&[u8], u32)> = inline.iter().collect();
            assert!(
                got == want,
                "task {task}: the same entries in the same slot order"
            );
        }
    }

    #[test]
    fn a_daemon_that_merges_nothing_starts_no_worker() {
        let mut merger = Merger::default();
        merger.clear(TaskId(1));
        let result = merger.finish(TaskId(1), SimTime::ZERO);
        assert!(merger.worker.is_none());
        assert!(result.is_empty());
        fn shareable<T: Clone + Send + Sync>(_: &T) {}
        shareable(&result);
    }

    #[test]
    fn a_worker_panic_is_raised_on_the_thread_that_waits_for_it() {
        let mut merger = Merger::default();
        // A record whose key runs past the end of its batch.
        merger.send(Msg::Batch(vec![1, 0, 0, 0, 0, 0xff, 0xff]));
        let raised = std::panic::catch_unwind(AssertUnwindSafe(|| {
            merger.finish(TaskId(1), SimTime::ZERO).len()
        }))
        .expect_err("the worker's panic reaches this thread");
        let text = raised
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| raised.downcast_ref::<String>().cloned());
        assert_eq!(
            text.as_deref(),
            Some("mid > len"),
            "the worker's own payload"
        );
        // Raised once: dropping the merger afterwards is quiet.
        drop(merger);
    }
}
