//! The switch data-plane program: vectorized multi-key aggregation over
//! two-dimensional aggregator arrays, per-flow reliability state, and the
//! shadow-copy mechanism — all expressed as register accesses on an
//! [`ask_pisa::pipeline::Pipeline`] so the PISA constraints are enforced.
//! Every pass below touches its arrays in ascending `(stage, slot)` order
//! on every path, so the pass's high-water mark never trips (DESIGN.md §6
//! "PISA legality").
//!
//! Pipeline memory map (stage → register arrays):
//!
//! ```text
//! stage 0      task_table      (match: task → region, indicator, op)
//!              copy_indicator  (1 bit  × max_tasks)
//!              max_seq         (64 bit × max_channels)
//!              seen            (1 bit  × max_channels × W)   compact §3.3
//! stage 1..    AA_0 .. AA_{N-1}, 4 per stage, 64-bit aggregators
//!              (kPart = high 32 bits, vPart = low 32 bits; each AA holds
//!              2 × aggregators_per_aa registers: two shadow copies, §3.4)
//! last stage   PktState        (64 bit × max_channels × W)   §3.3
//!              (the paper stores 32-bit bitmaps for its 32 AAs; we size
//!              the register to the architecture's maximum width so chained
//!              layouts up to 64 slots keep per-packet state)
//! ```
//!
//! One [`process_data_view`](AggregatorEngine::process_data_view) call is
//! one packet pass: a task-table lookup, the dedup gate, then one access
//! per aggregator array in stage order, then the `PktState` read-or-write.
//! Keys and values are read in place from the frame bytes
//! ([`DataPacketView`]); the engine never owns a decoded packet.

use crate::config::AskConfig;
use crate::fasthash::{FastMap, FastSet};
use crate::stats::SwitchTaskStats;
use ask_pisa::pipeline::{ArrayId, Pass, Pipeline};
use ask_pisa::spec::PipelineSpec;
use ask_wire::packet::{AaRegion, AggregateOp, ChannelId, FetchScope, SeqNo, TaskId};
use ask_wire::view::DataPacketView;
use bytes::Bytes;
use std::collections::{HashMap, HashSet};

/// Mixes a 64-bit key hash into an aggregator index (splitmix64
/// finalizer), decorrelated from the subspace-partition hash (which uses
/// the raw `hash64`).
fn index_mix(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of the dedup gate for one sequenced packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// Behind the receive window; drop silently.
    Stale,
    /// First appearance; process normally.
    First,
    /// Retransmission; consult `PktState`.
    Duplicate,
}

/// Verdict for one data packet.
///
/// A partial absorb reports the surviving slot bitmap, not a rewritten
/// packet — the caller re-frames the original wire bytes with
/// [`ask_wire::view::DataPacketView::residual_frame`], so nothing is ever
/// materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewVerdict {
    /// Stale packet, dropped without any response.
    Stale,
    /// Every tuple aggregated: drop the frame and ACK the sender.
    FullyAggregated,
    /// Residual tuples remain: re-frame and forward the surviving slots.
    Forward {
        /// Bitmap of the slots that survived aggregation.
        residual: u128,
    },
}

/// One fetch's harvest in fetch-reply wire form: the entry list a reply
/// frame carries behind its count, `u16 len · key · u32 value` per entry
/// ([`FrameWriter::fetch_reply`](ask_wire::codec::FrameWriter::fetch_reply)).
/// Clones share the bytes, so the fetch cache and every replay of a reply
/// hold one buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Harvest {
    pub(crate) entries: u32,
    pub(crate) body: Bytes,
}

impl Harvest {
    /// Number of harvested entries.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// True when nothing was harvested.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Every harvested `(key bytes, value)` entry, in harvest order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        let mut rest = &self.body[..];
        (0..self.entries).map(move |_| {
            let len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
            let (key, tail) = rest[2..].split_at(len);
            let value = u32::from_be_bytes([tail[0], tail[1], tail[2], tail[3]]);
            rest = &tail[4..];
            (key, value)
        })
    }
}

/// Where a claimed aggregator lives, for fast harvest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// `aa` is the short slot's AA index; `idx` the physical register index.
    Short { aa: usize, idx: usize },
    /// `group` is the medium group; `idx` the physical register index shared
    /// by all `m` coalesced AAs.
    Medium { group: usize, idx: usize },
}

#[derive(Debug)]
struct TaskEntry {
    region: AaRegion,
    indicator_idx: usize,
    receiver: u32,
    op: AggregateOp,
    /// Claims per shadow copy.
    claims: [Vec<Claim>; 2],
    /// Last served fetch sequence and its harvest, replayed to a retry.
    fetch_cache: Option<(u32, Harvest)>,
    stats: SwitchTaskStats,
}

/// "Region size is not a power of two" sentinel: fall back to modulo mixing.
const MASK_MODULO: u64 = u64::MAX;

/// The switch aggregation engine. Pure computation — no networking — so
/// benchmarks (e.g. Figure 9's prioritization sweep) can drive it directly.
#[derive(Debug)]
pub struct AggregatorEngine {
    config: AskConfig,
    pipeline: Pipeline,
    aas: Vec<ArrayId>,
    copy_indicator: ArrayId,
    max_seq: ArrayId,
    seen: ArrayId,
    pkt_state: ArrayId,
    /// The task table's entries: task id → region, indicator, operator,
    /// plus the task's claims, fetch cache and counters.
    tasks: FastMap<TaskId, TaskEntry>,
    /// Counters of released tasks, kept for post-mortem inspection.
    finished_stats: HashMap<TaskId, SwitchTaskStats>,
    channel_slots: FastMap<ChannelId, usize>,
    /// `region_aggregators - 1` when every region's length is a power of
    /// two (index mixing becomes an AND), else [`MASK_MODULO`].
    index_mask: u64,
    /// Copy-indicator indices not held by a live task; also caps live
    /// tasks at `max_tasks`.
    free_indicators: Vec<usize>,
    /// Free `[base, len)` slices of the per-copy aggregator space.
    free_regions: Vec<(u32, u32)>,
    /// If set, only channels whose owning host is in this set get
    /// reliability state and aggregation; other (cross-rack) channels are
    /// pure-forwarded (§7 "Deployment in Multi-rack networks").
    local_hosts: Option<FastSet<u32>>,
    /// Exact `(channel, seq)` absorption journal, kept only when
    /// [`AskConfig::absorption_audit`] is set. Oracle bookkeeping for the
    /// conformance harness — real hardware has no analogue.
    absorbed_seqs: Option<HashSet<(ChannelId, u64)>>,
}

/// Register arrays of a freshly built switch pipeline.
struct PipelineAlloc {
    pipeline: Pipeline,
    copy_indicator: ArrayId,
    max_seq: ArrayId,
    seen: ArrayId,
    aas: Vec<ArrayId>,
    pkt_state: ArrayId,
}

impl AggregatorEngine {
    /// Builds the engine, allocating all register arrays on a freshly
    /// created pipeline sized from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent ([`AskConfig::validate`]) or the
    /// layout cannot fit a Tofino3-like pipeline chain.
    pub fn new(config: AskConfig) -> Self {
        config.validate();
        let alloc = Self::build_pipeline(&config);
        let free_indicators: Vec<usize> = (0..config.max_tasks).rev().collect();
        let free_regions = vec![(0, config.aggregators_per_aa as u32)];
        let absorbed_seqs = config.absorption_audit.then(HashSet::new);
        let index_mask = if config.region_aggregators.is_power_of_two() {
            (config.region_aggregators - 1) as u64
        } else {
            MASK_MODULO
        };
        AggregatorEngine {
            config,
            pipeline: alloc.pipeline,
            aas: alloc.aas,
            copy_indicator: alloc.copy_indicator,
            max_seq: alloc.max_seq,
            seen: alloc.seen,
            pkt_state: alloc.pkt_state,
            tasks: FastMap::default(),
            finished_stats: HashMap::new(),
            channel_slots: FastMap::default(),
            index_mask,
            free_indicators,
            free_regions,
            local_hosts: None,
            absorbed_seqs,
        }
    }

    /// Builds and allocates the switch program's pipeline from scratch —
    /// used both at construction and when a crash wipes the data plane.
    fn build_pipeline(config: &AskConfig) -> PipelineAlloc {
        let n_aas = config.layout.aggregator_arrays();
        let aa_stages = n_aas.div_ceil(4);
        let stages_needed = 1 + aa_stages + 1;
        let chain = stages_needed.div_ceil(16).max(1);
        let mut pipeline = Pipeline::new(PipelineSpec::tofino3_chained(chain));

        // The task table maps task id → (region base, region length,
        // copy-indicator index, operator) ("the switch uses the task ID to
        // identify the aggregator memory region", §3.1). Its entries live in
        // the engine's `tasks` map, so the model only reserves its SRAM.
        pipeline
            .alloc_table(0, config.max_tasks, 4)
            .expect("task table fits stage 0");
        let copy_indicator = pipeline
            .alloc_array(0, config.max_tasks, 1)
            .expect("copy indicator fits stage 0");
        let max_seq = pipeline
            .alloc_array(0, config.max_channels, 64)
            .expect("max_seq fits stage 0");
        let seen = pipeline
            .alloc_array(0, config.max_channels * config.window, 1)
            .expect("seen fits stage 0");

        let mut aas = Vec::with_capacity(n_aas);
        for i in 0..n_aas {
            let stage = 1 + i / 4;
            let id = pipeline
                .alloc_array(stage, 2 * config.aggregators_per_aa, 64)
                .unwrap_or_else(|e| panic!("AA_{i} does not fit stage {stage}: {e}"));
            aas.push(id);
        }
        let pkt_state = pipeline
            .alloc_array(1 + aa_stages, config.max_channels * config.window, 64)
            .expect("PktState fits final stage");
        PipelineAlloc {
            pipeline,
            copy_indicator,
            max_seq,
            seen,
            aas,
            pkt_state,
        }
    }

    /// Power-failure semantics: every register array, match table, dedup
    /// window and task region is gone; only control-plane
    /// software state that would live off-switch survives (finished-task
    /// counters and the host-locality config). Live tasks' counters are
    /// banked into the finished set so observability spans the crash.
    pub fn crash_reset(&mut self) {
        for (task, entry) in self.tasks.drain() {
            self.finished_stats
                .entry(task)
                .or_default()
                .merge(&entry.stats);
        }
        let alloc = Self::build_pipeline(&self.config);
        self.pipeline = alloc.pipeline;
        self.aas = alloc.aas;
        self.copy_indicator = alloc.copy_indicator;
        self.max_seq = alloc.max_seq;
        self.seen = alloc.seen;
        self.pkt_state = alloc.pkt_state;
        self.channel_slots.clear();
        self.free_indicators = (0..self.config.max_tasks).rev().collect();
        self.free_regions = vec![(0, self.config.aggregators_per_aa as u32)];
        // The audit journal is per-epoch: sequence spaces restart at zero
        // after a crash, so old (channel, seq) keys would falsely collide.
        self.absorbed_seqs = self.config.absorption_audit.then(HashSet::new);
    }

    /// Restricts reliability state and aggregation to channels owned by
    /// `hosts` — the §7 top-of-rack deployment, where a ToR serves only its
    /// own rack and cross-rack traffic bypasses it as plain forwarding.
    pub fn set_local_hosts(&mut self, hosts: impl IntoIterator<Item = u32>) {
        self.local_hosts = Some(hosts.into_iter().collect());
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &AskConfig {
        &self.config
    }

    /// Per-task counters, surviving task release; `None` for unknown tasks.
    pub fn task_stats(&self, task: TaskId) -> Option<SwitchTaskStats> {
        // A task can have both a live entry and banked counters: a crash
        // banks the pre-crash stats while the re-registered epoch keeps its
        // own. Observability spans the crash, so sum them.
        let live = self.tasks.get(&task).map(|t| t.stats);
        let finished = self.finished_stats.get(&task).copied();
        match (live, finished) {
            (Some(mut l), Some(f)) => {
                l.merge(&f);
                Some(l)
            }
            (l, f) => l.or(f),
        }
    }

    /// The raw node index registered as `task`'s receiver: the ingress port
    /// its region request arrived on, the only one
    /// [`AskSwitch`](crate::switch::AskSwitch) takes its swap, fetch and
    /// release frames from.
    pub fn task_receiver(&self, task: TaskId) -> Option<u32> {
        self.tasks.get(&task).map(|t| t.receiver)
    }

    /// Registers a task with the paper's default SUM operator.
    /// Returns `None` (deny) if switch memory or task table is exhausted.
    pub fn register_task(&mut self, task: TaskId, receiver: u32) -> Option<AaRegion> {
        self.register_task_with_op(task, receiver, AggregateOp::Sum)
    }

    /// Registers a task with an explicit aggregation operator; the operator
    /// rides in the task's match-table action data, selecting the stateful
    /// ALU instruction the aggregator arrays execute for this task's
    /// packets.
    pub fn register_task_with_op(
        &mut self,
        task: TaskId,
        receiver: u32,
        op: AggregateOp,
    ) -> Option<AaRegion> {
        if self.config.force_host_only {
            return None;
        }
        if let Some(entry) = self.tasks.get(&task) {
            return Some(entry.region);
        }
        let want = self.config.region_aggregators as u32;
        let slot = self.free_regions.iter().position(|&(_, len)| len >= want)?;
        let indicator_idx = self.free_indicators.pop()?;
        let (base, len) = self.free_regions[slot];
        if len == want {
            self.free_regions.remove(slot);
        } else {
            self.free_regions[slot] = (base + want, len - want);
        }
        let region = AaRegion {
            base,
            aggregators: want,
        };
        self.pipeline
            .control_write(self.copy_indicator, indicator_idx, 0);
        self.tasks.insert(
            task,
            TaskEntry {
                region,
                indicator_idx,
                receiver,
                op,
                claims: [Vec::new(), Vec::new()],
                fetch_cache: None,
                stats: SwitchTaskStats::default(),
            },
        );
        Some(region)
    }

    /// Releases a task's region and indicator; idempotent. Any values still
    /// in the region are zeroed (the receiver is expected to have fetched
    /// them first).
    pub fn release_task(&mut self, task: TaskId) {
        let Some(entry) = self.tasks.remove(&task) else {
            return;
        };
        for claims in &entry.claims {
            self.reset_claims(claims);
        }
        self.free_indicators.push(entry.indicator_idx);
        self.free_regions
            .push((entry.region.base, entry.region.aggregators));
        self.coalesce_free_regions();
        // Merge (not insert): the task may have been registered before a
        // crash too, and its pre-crash counters already live here.
        self.finished_stats
            .entry(task)
            .or_default()
            .merge(&entry.stats);
    }

    fn coalesce_free_regions(&mut self) {
        self.free_regions.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.free_regions.len());
        for &(base, len) in &self.free_regions {
            match merged.last_mut() {
                Some((b, l)) if *b + *l == base => *l += len,
                _ => merged.push((base, len)),
            }
        }
        self.free_regions = merged;
    }

    fn channel_slot(&mut self, channel: ChannelId) -> Option<usize> {
        if let Some(local) = &self.local_hosts {
            if !local.contains(&channel.host()) {
                return None; // cross-rack flow: no state, pure forwarding
            }
        }
        if let Some(&s) = self.channel_slots.get(&channel) {
            return Some(s);
        }
        let next = self.channel_slots.len();
        if next >= self.config.max_channels {
            return None;
        }
        self.channel_slots.insert(channel, next);
        Some(next)
    }

    /// Runs the dedup gate for one sequenced packet: the `max_seq` stale
    /// guard, then the compact even/odd `seen` bitmap (§3.3, Eq. 8). The
    /// guard reads `seq + W <= max` as `max - seq >= W` (`max >= seq` by
    /// then), so a peer-chosen `seq` near `u64::MAX` cannot overflow it.
    fn observe_in_pass(
        pass: &mut Pass<'_>,
        max_seq: ArrayId,
        seen: ArrayId,
        ch_slot: usize,
        window: usize,
        seq: u64,
    ) -> Observation {
        let w = window as u64;
        let new_max = pass.access(max_seq, ch_slot, |v| {
            *v = (*v).max(seq);
            *v
        });
        if new_max - seq >= w {
            return Observation::Stale;
        }
        let r = (seq % w) as usize;
        let q_even = (seq / w).is_multiple_of(2);
        let bit = ch_slot * window + r;
        let observed = if q_even {
            pass.set_bit(seen, bit)
        } else {
            pass.clr_bitc(seen, bit)
        };
        if observed {
            Observation::Duplicate
        } else {
            Observation::First
        }
    }

    /// Dedup-gates a bypass packet (long-kv or FIN) that shares the
    /// channel's sequence space but is never aggregated. The switch forwards
    /// bypass packets regardless of duplication (the receiver dedups), but
    /// must still record them so the `seen` window stays dense.
    pub fn observe_bypass(&mut self, channel: ChannelId, seq: SeqNo) -> Observation {
        let Some(slot) = self.channel_slot(channel) else {
            return Observation::First; // untracked channel: pure forwarding
        };
        Self::observe_in_pass(
            &mut self.pipeline.begin_pass(),
            self.max_seq,
            self.seen,
            slot,
            self.config.window,
            seq.0,
        )
    }

    /// Records a forwarded long-key bypass packet in the task's counters.
    pub fn note_longkv_forwarded(&mut self, task: TaskId, tuples: u64) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.stats.longkv_packets_forwarded += 1;
            t.stats.tuples_long_forwarded += tuples;
        }
    }

    /// Processes one data packet through the full pipeline program,
    /// reading keys and values straight from the frame bytes. A partial
    /// absorb returns the surviving slot bitmap; the caller re-frames the
    /// inbound buffer.
    ///
    /// The view's declared slot layout must be the engine's
    /// ([`DataPacketView::matches_layout`]): slot `i` addresses aggregator
    /// array `i`. [`AskSwitch`](crate::switch::AskSwitch) relays frames in
    /// any other layout as bypass traffic and never hands them to the
    /// engine.
    pub fn process_data_view(&mut self, view: &DataPacketView) -> ViewVerdict {
        debug_assert!(
            view.matches_layout(&self.config.layout),
            "frames in a foreign slot layout are bypass traffic, not engine input"
        );
        let bitmap = view.bitmap();
        let Some(ch_slot) = self.channel_slot(view.channel()) else {
            // No reliability state available: best-effort pure forwarding.
            return ViewVerdict::Forward { residual: bitmap };
        };
        let window = self.config.window;
        // Stage 0: the task-table match yields the task's region, indicator
        // and operator. The entry is a field apart from the pipeline, so the
        // pass pushes claims straight into it.
        let mut task = self.tasks.get_mut(&view.task());

        let mut pass = self.pipeline.begin_pass();
        let copy = match &task {
            Some(t) => pass.access(self.copy_indicator, t.indicator_idx, |v| *v) as usize,
            None => 0,
        };
        let seq = view.seq().0;
        let obs = Self::observe_in_pass(&mut pass, self.max_seq, self.seen, ch_slot, window, seq);
        let state_idx = ch_slot * window + (seq % window as u64) as usize;

        match obs {
            Observation::Stale => {
                if let Some(t) = task {
                    t.stats.stale_dropped += 1;
                }
                ViewVerdict::Stale
            }
            Observation::First => {
                let (aggregated, forwarded, residual) = match task.as_deref_mut() {
                    Some(t) => Self::aggregate_slots(
                        &mut pass,
                        &self.aas,
                        &self.config,
                        self.index_mask,
                        t,
                        copy,
                        view,
                    ),
                    None => (0, bitmap.count_ones() as u64, bitmap),
                };
                // Final stage: record the post-aggregation bitmap.
                pass.access(self.pkt_state, state_idx, |v| *v = residual as u64);
                let empty = residual == 0;
                // Conformance audit: absorbing tuples from a sequence the
                // journal has already seen is an exactly-once violation.
                let dup_absorb = match self.absorbed_seqs.as_mut() {
                    Some(journal) if aggregated > 0 => {
                        u64::from(!journal.insert((view.channel(), seq)))
                    }
                    _ => 0,
                };
                if let Some(t) = task {
                    t.stats.data_packets += 1;
                    t.stats.tuples_aggregated += aggregated;
                    t.stats.tuples_forwarded += forwarded;
                    t.stats.duplicate_absorptions += dup_absorb;
                    if empty {
                        t.stats.packets_fully_aggregated += 1;
                    } else {
                        t.stats.packets_forwarded += 1;
                    }
                }
                if empty {
                    ViewVerdict::FullyAggregated
                } else {
                    ViewVerdict::Forward { residual }
                }
            }
            Observation::Duplicate => {
                // Skip the AAs entirely; restore the recorded bitmap.
                let stored = pass.access(self.pkt_state, state_idx, |v| *v) as u128;
                if let Some(t) = task {
                    t.stats.duplicates_detected += 1;
                }
                if stored == 0 {
                    ViewVerdict::FullyAggregated
                } else {
                    ViewVerdict::Forward {
                        residual: bitmap & stored,
                    }
                }
            }
        }
    }

    /// [`AggregatorEngine::process_data_view`] on each view in order, one
    /// verdict appended per view. Kept for callers written against a batch
    /// entry point (the frozen benchmark drives the switch through it).
    pub fn process_batch_views(
        &mut self,
        views: &[DataPacketView],
        verdicts: &mut Vec<ViewVerdict>,
    ) {
        verdicts.extend(views.iter().map(|v| self.process_data_view(v)));
    }

    /// Aggregates one packet's occupied slots within one pass, reading each
    /// key and value in place: one register access per aggregator array, in
    /// stage order. Pushes new claims onto the task's claims for `copy` and
    /// returns the aggregated/forwarded tuple counts and the surviving slot
    /// bitmap.
    fn aggregate_slots(
        pass: &mut Pass<'_>,
        aas: &[ArrayId],
        config: &AskConfig,
        index_mask: u64,
        task: &mut TaskEntry,
        copy: usize,
        view: &DataPacketView,
    ) -> (u64, u64, u128) {
        let layout = &config.layout;
        let base = copy * config.aggregators_per_aa + task.region.base as usize;
        let (op, claims) = (task.op, &mut task.claims[copy]);
        let short = layout.short_slots();
        let m = layout.medium_segments();
        let mut aggregated = 0u64;
        let mut forwarded = 0u64;
        let mut residual = view.bitmap();

        for s in view.slots() {
            let slot_ix = s.index();
            let value = s.value();
            let mix = index_mix(s.hash64());
            // Power-of-two regions reduce the index mix to an AND with the
            // precomputed mask; the modulo fallback yields the same index
            // whenever both paths are defined.
            let spread = if index_mask == MASK_MODULO {
                mix % task.region.aggregators as u64
            } else {
                mix & index_mask
            };
            let idx = base + spread as usize;
            let ok = if slot_ix < short {
                let seg = s.segment(0);
                debug_assert_ne!(seg, 0, "valid keys have non-zero segments");
                match Self::aggregate_segment(pass, aas[slot_ix], idx, seg, value, true, op) {
                    SegmentOutcome::Claimed => {
                        claims.push(Claim::Short { aa: slot_ix, idx });
                        true
                    }
                    SegmentOutcome::Matched => true,
                    SegmentOutcome::Conflict => false,
                }
            } else {
                let group = slot_ix - short;
                let base_aa = short + group * m;
                let mut claimed_any = false;
                let mut failed = false;
                for j in 0..m {
                    let (aa, seg, is_last) = (aas[base_aa + j], s.segment(j), j == m - 1);
                    match Self::aggregate_segment(pass, aa, idx, seg, value, is_last, op) {
                        SegmentOutcome::Claimed => claimed_any = true,
                        SegmentOutcome::Matched => {}
                        SegmentOutcome::Conflict => {
                            failed = true;
                            break;
                        }
                    }
                }
                debug_assert!(
                    !(claimed_any && failed),
                    "coalesced invariant: blanks are all-or-none per index"
                );
                if claimed_any {
                    claims.push(Claim::Medium { group, idx });
                }
                !failed
            };
            if ok {
                aggregated += 1;
                residual &= !(1u128 << slot_ix);
            } else {
                forwarded += 1;
            }
        }
        (aggregated, forwarded, residual)
    }

    /// One stateful-ALU operation on one aggregator register: claim if
    /// blank, add if the key segment matches, otherwise conflict.
    fn aggregate_segment(
        pass: &mut Pass<'_>,
        aa: ArrayId,
        idx: usize,
        seg: u32,
        value: u32,
        carries_value: bool,
        op: AggregateOp,
    ) -> SegmentOutcome {
        pass.access(aa, idx, |v| {
            let kpart = (*v >> 32) as u32;
            let vpart = *v as u32;
            if kpart == 0 {
                let nv = if carries_value { value } else { 0 };
                *v = ((seg as u64) << 32) | nv as u64;
                SegmentOutcome::Claimed
            } else if kpart == seg {
                if carries_value {
                    *v = ((seg as u64) << 32) | op.combine(vpart, value) as u64;
                }
                SegmentOutcome::Matched
            } else {
                SegmentOutcome::Conflict
            }
        })
    }

    /// Flips the task's copy indicator (Algorithm 1's `Switch()`); data
    /// packets processed after this pass aggregate into the other copy.
    pub fn swap(&mut self, task: TaskId) {
        let Some(entry) = self.tasks.get_mut(&task) else {
            return;
        };
        entry.stats.swaps += 1;
        let idx = entry.indicator_idx;
        self.pipeline
            .begin_pass()
            .access(self.copy_indicator, idx, |v| *v ^= 1);
    }

    /// The task's currently active copy (0 or 1); `None` for unknown tasks.
    pub fn active_copy(&self, task: TaskId) -> Option<usize> {
        let entry = self.tasks.get(&task)?;
        Some(
            self.pipeline
                .control_read(self.copy_indicator, entry.indicator_idx) as usize,
        )
    }

    /// Reliable fetch (Algorithm 1's `Read()` plus reset): harvests the
    /// requested copies when `fetch_seq` advances, replays the cached
    /// harvest otherwise (a clone sharing its bytes, not a re-read).
    pub fn fetch(&mut self, task: TaskId, scope: FetchScope, fetch_seq: u32) -> Harvest {
        let Some(entry) = self.tasks.get_mut(&task) else {
            return Harvest::default();
        };
        if let Some((cached_seq, ref cached)) = entry.fetch_cache {
            if fetch_seq <= cached_seq {
                return cached.clone();
            }
        }
        let active = self
            .pipeline
            .control_read(self.copy_indicator, entry.indicator_idx) as usize;
        let taken = match scope {
            FetchScope::Inactive => [std::mem::take(&mut entry.claims[1 - active]), Vec::new()],
            FetchScope::All => std::mem::take(&mut entry.claims),
        };
        let mut body = Vec::new();
        let mut entries = 0;
        for claims in &taken {
            entries += self.harvest_claims(claims, &mut body);
            self.reset_claims(claims);
        }
        let harvest = Harvest {
            entries,
            body: Bytes::from(body),
        };
        let entry = self.tasks.get_mut(&task).expect("fetched task is live");
        entry.stats.tuples_fetched += u64::from(entries);
        entry.fetch_cache = Some((fetch_seq, harvest.clone()));
        harvest
    }

    /// Appends one entry per live claim to `out`, straight from the
    /// registers: the claim's `kPart` segments with the trailing zero
    /// padding stripped are the key, the last segment's `vPart` the value.
    /// Returns the number of entries written.
    fn harvest_claims(&self, claims: &[Claim], out: &mut Vec<u8>) -> u32 {
        let layout = &self.config.layout;
        let mut harvested = 0;
        for claim in claims {
            let (aas, idx) = match *claim {
                Claim::Short { aa, idx } => (&self.aas[aa..=aa], idx),
                Claim::Medium { group, idx } => {
                    let m = layout.medium_segments();
                    let base_aa = layout.short_slots() + group * m;
                    (&self.aas[base_aa..base_aa + m], idx)
                }
            };
            if self.pipeline.control_read(aas[0], idx) >> 32 == 0 {
                continue;
            }
            let at = out.len();
            out.extend_from_slice(&[0, 0]); // key length, patched below
            let mut value = 0;
            for &aa in aas {
                let raw = self.pipeline.control_read(aa, idx);
                out.extend_from_slice(&((raw >> 32) as u32).to_be_bytes());
                value = raw as u32;
            }
            let key = &out[at + 2..];
            let key_len = key.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            assert!(!key[..key_len].contains(&0), "stored keys are valid");
            out.truncate(at + 2 + key_len);
            out[at..at + 2].copy_from_slice(&(key_len as u16).to_be_bytes());
            out.extend_from_slice(&value.to_be_bytes());
            harvested += 1;
        }
        harvested
    }

    fn reset_claims(&mut self, claims: &[Claim]) {
        let layout = self.config.layout;
        for claim in claims {
            match *claim {
                Claim::Short { aa, idx } => {
                    self.pipeline.control_write(self.aas[aa], idx, 0);
                }
                Claim::Medium { group, idx } => {
                    let m = layout.medium_segments();
                    let base_aa = layout.short_slots() + group * m;
                    for s in 0..m {
                        self.pipeline.control_write(self.aas[base_aa + s], idx, 0);
                    }
                }
            }
        }
    }

    /// Total passes the pipeline has executed (one per packet or swap).
    pub fn passes_executed(&self) -> u64 {
        self.pipeline.passes_executed()
    }

    /// PISA constraint violations: always 0. Every pass touches its arrays
    /// in an order fixed by this program, and an illegal access panics in
    /// [`Pass::access`] instead of being counted. Kept for callers that
    /// report the count (the benchmark's `pisa.violations`).
    pub fn constraint_violations(&self) -> u64 {
        0
    }

    /// Total exactly-once violations seen by the absorption audit, across
    /// live and released tasks. Always 0 when the audit is disabled.
    pub fn duplicate_absorptions(&self) -> u64 {
        self.tasks
            .values()
            .map(|t| t.stats.duplicate_absorptions)
            .chain(
                self.finished_stats
                    .values()
                    .map(|s| s.duplicate_absorptions),
            )
            .sum()
    }

    /// Chaos hook: flips the compact `seen` bit covering `(channel, seq)`,
    /// simulating an SRAM upset in the dedup window. Returns `false` if the
    /// channel has no reliability state. Control-plane access — this is
    /// fault *injection*, not part of the switch program.
    pub fn inject_seen_bit_flip(&mut self, channel: ChannelId, seq: SeqNo) -> bool {
        let Some(&slot) = self.channel_slots.get(&channel) else {
            return false;
        };
        let w = self.config.window;
        let bit = slot * w + (seq.0 % w as u64) as usize;
        let cur = self.pipeline.control_read(self.seen, bit);
        self.pipeline.control_write(self.seen, bit, cur ^ 1);
        true
    }

    /// Per-stage resource usage of the compiled switch program.
    pub fn resource_report(&self) -> ask_pisa::pipeline::ResourceReport {
        self.pipeline.resource_report()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentOutcome {
    Claimed,
    Matched,
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{data_view, harvest_tuples};
    use ask_wire::key::Key;
    use ask_wire::packet::{DataPacket, KvTuple};

    fn engine() -> AggregatorEngine {
        AggregatorEngine::new(AskConfig::tiny())
    }

    /// A data frame in the tiny layout, as the switch sees it on the wire.
    fn view(task: u32, channel: u32, seq: u64, tuples: &[(usize, &str, u32)]) -> DataPacketView {
        let layout = AskConfig::tiny().layout;
        let mut slots = vec![None; layout.slot_count()];
        for &(slot, key, value) in tuples {
            slots[slot] = Some(KvTuple::new(Key::from_str(key).unwrap(), value));
        }
        let pkt = DataPacket {
            task: TaskId(task),
            channel: ChannelId(channel),
            seq: SeqNo(seq),
            slots,
        };
        data_view(pkt, &layout)
    }

    #[test]
    fn first_packet_fully_aggregates() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).expect("region");
        let v = e.process_data_view(&view(1, 0, 0, &[(0, "cat", 3), (1, "dog", 4)]));
        assert_eq!(v, ViewVerdict::FullyAggregated);
        let got = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1));
        let mut got: Vec<(String, u32)> = got
            .iter()
            .map(|t| {
                (
                    String::from_utf8_lossy(t.key.as_bytes()).into_owned(),
                    t.value,
                )
            })
            .collect();
        got.sort();
        assert_eq!(got, vec![("cat".into(), 3), ("dog".into(), 4)]);
    }

    #[test]
    fn same_key_accumulates() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        for seq in 0..10 {
            let v = e.process_data_view(&view(1, 0, seq, &[(0, "cat", 2)]));
            assert_eq!(v, ViewVerdict::FullyAggregated);
        }
        let got = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 20);
    }

    #[test]
    fn collision_forwards_residual() {
        let mut e = engine();
        // One-aggregator region: every distinct key after the first collides.
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let mut e2 = AggregatorEngine::new(cfg);
        e2.register_task(TaskId(1), 9).unwrap();
        assert_eq!(
            e2.process_data_view(&view(1, 0, 0, &[(0, "aaa", 1)])),
            ViewVerdict::FullyAggregated
        );
        assert_eq!(
            e2.process_data_view(&view(1, 0, 1, &[(0, "bbb", 7)])),
            ViewVerdict::Forward { residual: 0b1 }
        );
        let s = e2.task_stats(TaskId(1)).unwrap();
        assert_eq!(s.tuples_aggregated, 1);
        assert_eq!(s.tuples_forwarded, 1);
        assert_eq!(s.packets_forwarded, 1);
        // Keep the default-config engine exercised too.
        e.register_task(TaskId(2), 1).unwrap();
    }

    #[test]
    fn duplicate_fully_aggregated_is_acked_not_reaggregated() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let p = view(1, 0, 0, &[(0, "cat", 5)]);
        assert_eq!(e.process_data_view(&p), ViewVerdict::FullyAggregated);
        assert_eq!(e.process_data_view(&p), ViewVerdict::FullyAggregated);
        let got = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1));
        assert_eq!(got[0].value, 5, "retransmission must not double-count");
        assert_eq!(e.task_stats(TaskId(1)).unwrap().duplicates_detected, 1);
    }

    #[test]
    fn duplicate_partial_carries_only_residual() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 9).unwrap();
        // Occupy slot-0's only aggregator with "aaa".
        e.process_data_view(&view(1, 0, 0, &[(0, "aaa", 1)]));
        // Mixed packet: "aaa" aggregates, "bbb" conflicts in slot 0... they
        // share slot 0 across packets; send both in one packet via slots 0/1.
        let mixed = view(1, 0, 1, &[(0, "aaa", 2), (1, "ccc", 3)]);
        let first = e.process_data_view(&mixed);
        // "aaa" merges into slot0 aggregator; "ccc" claims slot1 aggregator.
        assert_eq!(first, ViewVerdict::FullyAggregated);
        // Now make slot 1 conflict: occupy then send a different key.
        let conflict = view(1, 0, 2, &[(1, "ddd", 9)]);
        let v1 = e.process_data_view(&conflict);
        assert_eq!(v1, ViewVerdict::Forward { residual: 0b10 });
        // Retransmit the same packet: must carry the same residual without
        // touching the aggregators.
        let v2 = e.process_data_view(&conflict);
        assert_eq!(v1, v2);
        let total: u32 = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1))
            .iter()
            .map(|t| t.value)
            .sum();
        assert_eq!(total, 1 + 2 + 3, "ddd must not be aggregated on switch");
    }

    #[test]
    fn stale_packet_dropped() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let w = e.config().window as u64;
        // Advance max_seq far ahead.
        e.process_data_view(&view(1, 0, 3 * w, &[(0, "cat", 1)]));
        let v = e.process_data_view(&view(1, 0, w, &[(0, "dog", 1)]));
        assert_eq!(v, ViewVerdict::Stale);
        assert_eq!(e.task_stats(TaskId(1)).unwrap().stale_dropped, 1);
    }

    #[test]
    fn unknown_task_forwards_without_aggregation() {
        let mut e = engine();
        let v = e.process_data_view(&view(42, 0, 0, &[(0, "cat", 1)]));
        assert_eq!(v, ViewVerdict::Forward { residual: 0b1 });
    }

    #[test]
    fn medium_keys_coalesce_and_roundtrip() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        // tiny layout: slots 4 and 5 are medium groups (m = 2).
        let p = view(1, 0, 0, &[(4, "maples", 6)]);
        assert_eq!(e.process_data_view(&p), ViewVerdict::FullyAggregated);
        assert_eq!(
            e.process_data_view(&view(1, 0, 1, &[(4, "maples", 4)])),
            ViewVerdict::FullyAggregated
        );
        let got = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_bytes(), b"maples");
        assert_eq!(got[0].value, 10);
    }

    #[test]
    fn medium_prefix_keys_do_not_false_match() {
        // "yoursX" vs "yourlY": craft two 6-byte keys sharing segment 0 if
        // hashed to the same index they must conflict, not merge. We force
        // the shared index with a 1-aggregator region.
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 1;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 9).unwrap();
        assert_eq!(
            e.process_data_view(&view(1, 0, 0, &[(4, "yoursa", 1)])),
            ViewVerdict::FullyAggregated
        );
        // Same segment 0 ("your"), different key: unified index collides →
        // segment 0 mismatch is impossible (same bytes) BUT segment 1
        // differs → conflict, forwarded.
        assert_eq!(
            e.process_data_view(&view(1, 0, 1, &[(4, "yourxy", 2)])),
            ViewVerdict::Forward { residual: 1 << 4 }
        );
        let got = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_bytes(), b"yoursa");
        assert_eq!(got[0].value, 1);
    }

    #[test]
    fn shadow_swap_directs_writes_to_other_copy() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        assert_eq!(e.active_copy(TaskId(1)), Some(0));
        e.process_data_view(&view(1, 0, 0, &[(0, "cat", 1)]));
        e.swap(TaskId(1));
        assert_eq!(e.active_copy(TaskId(1)), Some(1));
        e.process_data_view(&view(1, 0, 1, &[(0, "cat", 2)]));
        // Inactive copy now holds the pre-swap value.
        let old = harvest_tuples(&e.fetch(TaskId(1), FetchScope::Inactive, 1));
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].value, 1);
        // Remaining copy holds the post-swap value.
        let rest = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 2));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].value, 2);
    }

    #[test]
    fn fetch_is_idempotent_per_fetch_seq() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        e.process_data_view(&view(1, 0, 0, &[(0, "cat", 5)]));
        let a = e.fetch(TaskId(1), FetchScope::All, 1);
        // Retry of the same fetch_seq replays the cache even though the
        // registers were reset.
        let b = e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        // The next fetch_seq sees an empty region.
        let c = e.fetch(TaskId(1), FetchScope::All, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn regions_isolate_tasks() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 16; // two tasks fit (64-aggregator space)
        let mut e = AggregatorEngine::new(cfg);
        let r1 = e.register_task(TaskId(1), 8).unwrap();
        let r2 = e.register_task(TaskId(2), 9).unwrap();
        assert_ne!(r1.base, r2.base);
        e.process_data_view(&view(1, 0, 0, &[(0, "cat", 1)]));
        e.process_data_view(&view(2, 1, 0, &[(0, "cat", 10)]));
        assert_eq!(
            harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1))[0].value,
            1
        );
        assert_eq!(
            harvest_tuples(&e.fetch(TaskId(2), FetchScope::All, 1))[0].value,
            10
        );
    }

    #[test]
    fn region_exhaustion_denies_then_release_recovers() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 32; // per-copy space is 64: two tasks max
        let mut e = AggregatorEngine::new(cfg);
        assert!(e.register_task(TaskId(1), 1).is_some());
        assert!(e.register_task(TaskId(2), 2).is_some());
        assert!(e.register_task(TaskId(3), 3).is_none(), "memory exhausted");
        e.release_task(TaskId(1));
        assert!(e.register_task(TaskId(3), 3).is_some());
        // Idempotent release of an unknown task is a no-op.
        e.release_task(TaskId(99));
    }

    #[test]
    fn release_zeroes_leftover_registers() {
        let mut cfg = AskConfig::tiny();
        cfg.region_aggregators = 32;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 1).unwrap();
        e.process_data_view(&view(1, 0, 0, &[(0, "cat", 5)]));
        e.release_task(TaskId(1));
        // A new task reusing the same region must not see stale keys.
        e.register_task(TaskId(2), 2).unwrap();
        assert_eq!(
            e.process_data_view(&view(2, 1, 0, &[(0, "dog", 1)])),
            ViewVerdict::FullyAggregated
        );
        let got = harvest_tuples(&e.fetch(TaskId(2), FetchScope::All, 1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_bytes(), b"dog");
    }

    #[test]
    fn bypass_observation_keeps_window_dense() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let w = e.config().window as u64;
        // Interleave: even seqs are data, odd are bypass, across 3 windows.
        for seq in 0..3 * w {
            if seq % 2 == 0 {
                let v = e.process_data_view(&view(1, 0, seq, &[(0, "cat", 1)]));
                assert_eq!(v, ViewVerdict::FullyAggregated, "seq {seq}");
            } else {
                let o = e.observe_bypass(ChannelId(0), SeqNo(seq));
                assert_eq!(o, Observation::First, "seq {seq}");
            }
        }
        let got = harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1));
        assert_eq!(got[0].value as u64, 3 * w / 2);
    }

    #[test]
    fn full_window_of_packets_then_duplicates() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        let w = e.config().window as u64;
        for seq in 0..w {
            assert_eq!(
                e.process_data_view(&view(1, 0, seq, &[(0, "k", 1)])),
                ViewVerdict::FullyAggregated
            );
        }
        for seq in 0..w {
            // All still in window (max_seq = w-1, window (w-1-W, w-1]).
            assert_eq!(
                e.process_data_view(&view(1, 0, seq, &[(0, "k", 1)])),
                ViewVerdict::FullyAggregated,
                "dup seq {seq}"
            );
        }
        assert_eq!(
            harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1))[0].value as u64,
            w
        );
    }

    #[test]
    fn seen_bit_flip_reabsorption_is_invisible_to_values_but_audited() {
        // The bug class the value-comparing e2e suite can never catch: under
        // AggregateOp::Max, absorbing the same packet twice leaves the final
        // value unchanged (max(v, v) = v). Only the absorption audit sees it.
        let mut cfg = AskConfig::tiny();
        cfg.absorption_audit = true;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task_with_op(TaskId(1), 9, AggregateOp::Max)
            .unwrap();
        let p = view(1, 0, 0, &[(0, "cat", 7)]);
        assert_eq!(e.process_data_view(&p), ViewVerdict::FullyAggregated);
        assert!(e.inject_seen_bit_flip(ChannelId(0), SeqNo(0)));
        // The retransmission now passes the corrupted dedup gate.
        assert_eq!(e.process_data_view(&p), ViewVerdict::FullyAggregated);
        assert_eq!(
            harvest_tuples(&e.fetch(TaskId(1), FetchScope::All, 1))[0].value,
            7,
            "value oracle is blind to the double absorption"
        );
        assert_eq!(e.duplicate_absorptions(), 1, "the audit is not");
        assert_eq!(e.task_stats(TaskId(1)).unwrap().duplicate_absorptions, 1);
    }

    #[test]
    fn normal_runs_report_no_violations_or_duplicate_absorptions() {
        let mut cfg = AskConfig::tiny();
        cfg.absorption_audit = true;
        let mut e = AggregatorEngine::new(cfg);
        e.register_task(TaskId(1), 9).unwrap();
        for seq in 0..20 {
            e.process_data_view(&view(1, 0, seq, &[(0, "cat", 1), (4, "maples", 2)]));
            if seq % 3 == 0 {
                // Honest retransmissions must not trip the audit.
                e.process_data_view(&view(1, 0, seq, &[(0, "cat", 1), (4, "maples", 2)]));
            }
        }
        e.swap(TaskId(1));
        e.fetch(TaskId(1), FetchScope::All, 1);
        assert_eq!(e.constraint_violations(), 0);
        assert_eq!(e.duplicate_absorptions(), 0);
    }

    #[test]
    #[should_panic(expected = "high-water mark")]
    fn pkt_state_before_an_aa_is_an_illegal_pass() {
        // The mutation the legality rule must catch: the switch program with
        // its final-stage `PktState` write moved ahead of an aggregator.
        let mut e = engine();
        let (pkt_state, aa) = (e.pkt_state, e.aas[0]);
        let mut pass = e.pipeline.begin_pass();
        pass.access(pkt_state, 0, |v| *v = 1);
        pass.access(aa, 0, |_| ());
    }

    #[test]
    fn control_plane_changes_take_effect_on_the_next_packet() {
        let mut e = engine();
        assert_eq!(
            e.process_data_view(&view(1, 0, 0, &[(0, "cat", 1)])),
            ViewVerdict::Forward { residual: 0b1 },
            "unknown task must forward"
        );
        // Installing the task: the same (channel, task) pair now aggregates.
        e.register_task(TaskId(1), 9).expect("region");
        assert_eq!(
            e.process_data_view(&view(1, 0, 1, &[(0, "cat", 2)])),
            ViewVerdict::FullyAggregated
        );
        // Releasing it: back to pure forwarding.
        e.release_task(TaskId(1));
        assert_eq!(
            e.process_data_view(&view(1, 0, 2, &[(0, "cat", 3)])),
            ViewVerdict::Forward { residual: 0b1 },
            "released task must forward"
        );
        // A different task reusing the freed indicator and region must not
        // inherit the released task's stats or claims.
        e.register_task(TaskId(2), 9).expect("region");
        assert_eq!(
            e.process_data_view(&view(2, 0, 3, &[(0, "dog", 4)])),
            ViewVerdict::FullyAggregated
        );
        assert_eq!(e.task_stats(TaskId(2)).unwrap().data_packets, 1);
        assert_eq!(e.fetch(TaskId(2), FetchScope::All, 1).len(), 1);
        // A crash forgets the task: its next frame is forwarded whole and
        // counted nowhere.
        e.crash_reset();
        assert_eq!(
            e.process_data_view(&view(2, 0, 0, &[(0, "dog", 5), (1, "cat", 6)])),
            ViewVerdict::Forward { residual: 0b11 },
            "a crashed-away task must forward"
        );
        assert_eq!(e.task_stats(TaskId(2)).unwrap().data_packets, 1);
        // Excluding the host of a channel that already holds a dedup slot:
        // that channel's next frame is forwarded whole and changes no
        // task counter.
        e.register_task(TaskId(3), 9).expect("region");
        assert_eq!(
            e.process_data_view(&view(3, 0, 1, &[(0, "eel", 7)])),
            ViewVerdict::FullyAggregated
        );
        let before = e.task_stats(TaskId(3));
        e.set_local_hosts([ChannelId(0).host() + 1]);
        assert_eq!(
            e.process_data_view(&view(3, 0, 2, &[(0, "eel", 8), (1, "fox", 9)])),
            ViewVerdict::Forward { residual: 0b11 },
            "a channel of a non-local host must forward"
        );
        assert_eq!(e.task_stats(TaskId(3)), before);
    }

    #[test]
    fn sequence_numbers_at_the_top_of_u64_classify_first_then_duplicate() {
        // A CRC-valid frame may carry any `seq`. The compact bitmap needs
        // the dense arrivals it is built for, so walk the channel from the
        // start of an even phase up to u64::MAX: every seq is new once.
        let mut e = engine();
        let w = e.config().window as u64;
        let q = u64::MAX / w;
        let start = (q - q % 2 - 2) * w;
        for seq in start..u64::MAX - 1 {
            assert_eq!(
                e.observe_bypass(ChannelId(0), SeqNo(seq)),
                Observation::First
            );
        }
        for seq in [u64::MAX - 1, u64::MAX] {
            assert_eq!(
                e.observe_bypass(ChannelId(0), SeqNo(seq)),
                Observation::First,
                "{seq}"
            );
            assert_eq!(
                e.observe_bypass(ChannelId(0), SeqNo(seq)),
                Observation::Duplicate,
                "{seq}"
            );
        }
        assert_eq!(
            e.observe_bypass(ChannelId(0), SeqNo(u64::MAX - w)),
            Observation::Stale,
            "W behind the maximum is stale, as everywhere else"
        );
        assert_eq!(
            e.observe_bypass(ChannelId(0), SeqNo(u64::MAX - w + 1)),
            Observation::Duplicate
        );
    }

    #[test]
    fn blank_slots_are_skipped() {
        let mut e = engine();
        e.register_task(TaskId(1), 9).unwrap();
        assert_eq!(
            e.process_data_view(&view(1, 0, 0, &[])),
            ViewVerdict::FullyAggregated
        );
    }
}
