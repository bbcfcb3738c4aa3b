//! Crash-safe checkpointing and corruption-tolerant resumable recovery
//! for the Theorem 1.1 reduction drivers.
//!
//! Long reductions die for boring reasons — OOM kills, preemption,
//! power loss — and the paper's phase loop is expensive to restart from
//! scratch. This module makes both drivers *resumable*: a write-ahead
//! [`PhaseJournal`] durably records each committed phase (the chosen
//! independent set, a fingerprint of the conflict graph it was chosen
//! on, the cumulative oracle-call positions that keep fault schedules
//! deterministic, and the phase's [`FaultEvent`]s), and on restart the
//! `*_resumable` entry points replay the journal, re-validate every
//! record against the actual instance, and continue from the last good
//! phase — producing output **byte-identical** to an uninterrupted run.
//!
//! # Journal format
//!
//! One file, `journal.psj`, inside the checkpoint directory:
//!
//! ```text
//! offset 0   magic  "PSLJRNL\x01"                       (8 bytes)
//! then, repeated:
//!            len    u32 LE — payload byte count
//!            crc    u32 LE — CRC-32 (IEEE) of the payload
//!            payload:
//!              tag  u8 — 0 = header record, 1 = phase record
//!              ...  tag-specific fields (see [`JournalHeader`],
//!                   [`JournalPhase`])
//! ```
//!
//! The first record is always the header; every following record is a
//! phase, indexed sequentially from 0. The journal is **append-only**:
//! creating it writes the magic and the header once (`sync_all`, then a
//! best-effort fsync of the directory), and each committed phase
//! appends one record followed by `sync_data`. A crash mid-append can
//! only tear the last record, and the reader is the one defence against
//! that and against everything else (bit rot, a truncating copy): it
//! keeps the longest prefix of records whose bounds, CRC and decoding
//! check out, and replay cuts the file back to the prefix it accepts
//! before the next append.
//!
//! # Replay state machine
//!
//! Replay trusts nothing. For each phase record, in order:
//!
//! 1. **structure** — length, CRC, tag, and full decode already held at
//!    open; the phase index must equal the replay cursor;
//! 2. **fingerprint** — the stored conflict-graph fingerprint must
//!    match [`ConflictGraph::fingerprint`] of the graph the cursor
//!    actually reached;
//! 3. **independence** — the stored set must be in range and verified
//!    independent in that graph ([`ConflictGraph::verify_independent`],
//!    the check the live loop applies to untrusted oracle answers);
//! 4. **quota** — the set must meet the Lemma 2.1 quota the original
//!    run enforced ([`JournalPhase::quota_required`]);
//! 5. **re-commit** — the phase is re-committed through the drivers'
//!    shared `commit_phase` and the resulting [`PhaseRecord`] must
//!    equal the stored one (this also re-checks the geometric-decay
//!    invariant where the original run enforced it).
//!
//! The first record that fails any step is discarded **along with
//! everything after it** (the in-memory commit is rolled back and the
//! journal truncated to the good prefix), and the driver resumes
//! normal execution from there. A corrupt journal can therefore cost
//! recomputation, never correctness.

use crate::conflict_graph::ConflictGraph;
use crate::reduction::{commit_phase, decay_allowed, PhaseRecord};
use crate::resilient::{FaultEvent, FaultEventKind};
use pslocal_cfcolor::Multicoloring;
use pslocal_graph::{HyperedgeId, Hypergraph, IndependentSet, NodeId};
use pslocal_maxis::{CrashPoint, CrashSignal};
use pslocal_telemetry::{names, span, Counter, Sink, Span};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First bytes of every journal file: format name + format version.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PSLJRNL\x01";

/// The journal's file name inside a checkpoint directory.
pub const JOURNAL_FILE_NAME: &str = "journal.psj";

/// Upper bound on a single record's payload, as a corruption firewall:
/// a bit flip in the `len` field must not make the parser swallow the
/// rest of the file (or attempt a absurd allocation) as one "record".
const MAX_RECORD_LEN: usize = 1 << 26;

const TAG_HEADER: u8 = 0;
const TAG_PHASE: u8 = 1;

// ---------------------------------------------------------------------
// Checksums and fingerprints
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial) of `data` — the per-record checksum
/// of the journal format.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Order-sensitive FNV-1a fingerprint of a hypergraph instance: vertex
/// count, edge count, and every hyperedge's members in order. Stored in
/// the journal header so a journal can never be replayed against a
/// different instance.
///
/// Delegates to the graph crate's frozen byte stream
/// ([`pslocal_graph::fingerprint`]) — the journal format depends on
/// these exact values, and keeping one implementation means the dense
/// bitset kernels and the recovery layer cannot drift apart.
pub fn fingerprint_hypergraph(h: &Hypergraph) -> u64 {
    h.fingerprint()
}

// ---------------------------------------------------------------------
// Byte codec (the vendored serde is derive-only: all encoding is
// hand-rolled, little-endian, length-prefixed)
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn size(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Appends one record to `out` as it sits on disk — payload length,
/// payload CRC-32, then the payload `encode` writes — and returns `out`.
fn frame(out: Vec<u8>, encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let start = out.len();
    let mut e = Enc(out);
    e.u64(0); // length and CRC, filled in once the payload is known
    encode(&mut e);
    let mut out = e.0;
    let payload = &out[start + 8..];
    let (len, crc) = ((payload.len() as u32).to_le_bytes(), crc32(payload).to_le_bytes());
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + 8].copy_from_slice(&crc);
    out
}

/// Bounds-checked little-endian reader; every getter returns `None`
/// past the end, so a truncated payload can never read out of bounds.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn size(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// Which reduction driver wrote a journal. Stored in the header so a
/// trusting-driver journal is never resumed by the resilient driver
/// (their oracle-call accounting differs) or vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriverKind {
    /// `reduce_cf_to_maxis*` — trusts the oracle, single oracle.
    Trusting,
    /// `reduce_cf_resilient*` — re-validates, walks a fallback chain.
    Resilient,
}

impl DriverKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Trusting => "trusting",
            DriverKind::Resilient => "resilient",
        }
    }

    fn code(self) -> u8 {
        match self {
            DriverKind::Trusting => 0,
            DriverKind::Resilient => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => DriverKind::Trusting,
            1 => DriverKind::Resilient,
            _ => return None,
        })
    }
}

impl fmt::Display for DriverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The journal's first record: everything a resume must agree on
/// before a single phase record is trusted. A header mismatch is a
/// *user error* (wrong directory, changed configuration), reported as
/// [`JournalError::HeaderMismatch`] rather than silently discarding a
/// valid journal of some other run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The driver that writes this journal.
    pub driver: DriverKind,
    /// Promised palette size `k`.
    pub k: usize,
    /// The run's λ, bit-exact ([`f64::to_bits`]).
    pub lambda_bits: u64,
    /// The paper's phase budget `ρ`.
    pub rho: usize,
    /// The effective phase cap (`min(max_phases, ρ)`).
    pub budget: usize,
    /// Worker threads of the component-parallel executor (oracle-call
    /// positions depend on it, so resumes must match).
    pub threads: usize,
    /// [`fingerprint_hypergraph`] of the input instance.
    pub instance_fingerprint: u64,
    /// `name()` of every oracle in the chain, primary first (the
    /// trusting driver stores exactly one).
    pub oracle_names: Vec<String>,
}

impl JournalHeader {
    /// The λ this journal was computed with.
    pub fn lambda(&self) -> f64 {
        f64::from_bits(self.lambda_bits)
    }

    fn encode(&self, e: &mut Enc) {
        e.u8(TAG_HEADER);
        e.u8(self.driver.code());
        e.size(self.k);
        e.u64(self.lambda_bits);
        e.size(self.rho);
        e.size(self.budget);
        e.size(self.threads);
        e.u64(self.instance_fingerprint);
        e.u32(self.oracle_names.len() as u32);
        for name in &self.oracle_names {
            e.str(name);
        }
    }

    /// Decodes the payload *after* the tag byte.
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let driver = DriverKind::from_code(d.u8()?)?;
        let k = d.size()?;
        let lambda_bits = d.u64()?;
        let rho = d.size()?;
        let budget = d.size()?;
        let threads = d.size()?;
        let instance_fingerprint = d.u64()?;
        let count = d.u32()? as usize;
        if count > 1024 {
            return None;
        }
        let mut oracle_names = Vec::with_capacity(count);
        for _ in 0..count {
            oracle_names.push(d.str()?);
        }
        Some(JournalHeader {
            driver,
            k,
            lambda_bits,
            rho,
            budget,
            threads,
            instance_fingerprint,
            oracle_names,
        })
    }
}

/// A [`FaultEvent`] as stored on disk: identical fields, except the
/// oracle name is owned. Interning back to the `&'static str` the live
/// chain exposes happens at replay ([`StoredFaultEvent::intern`]); a
/// name no oracle in the chain answers to marks the record corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredFaultEvent {
    /// Phase the event occurred in.
    pub phase: usize,
    /// Attempt index within the phase.
    pub attempt: usize,
    /// Name of the oracle involved.
    pub oracle: String,
    /// Conflict-graph component, when the phase ran parallel.
    pub component: Option<usize>,
    /// What happened.
    pub kind: FaultEventKind,
}

impl StoredFaultEvent {
    /// Converts a live fault-log entry for storage.
    pub fn from_event(e: &FaultEvent) -> Self {
        StoredFaultEvent {
            phase: e.phase,
            attempt: e.attempt,
            oracle: e.oracle.to_string(),
            component: e.component,
            kind: e.kind,
        }
    }

    /// Re-interns the stored oracle name against the live chain's
    /// names. `None` = the journal names an oracle this run does not
    /// have — the record cannot belong to this configuration.
    pub fn intern(&self, names: &[&'static str]) -> Option<FaultEvent> {
        let oracle = *names.iter().find(|n| **n == self.oracle)?;
        Some(FaultEvent {
            phase: self.phase,
            attempt: self.attempt,
            oracle,
            component: self.component,
            kind: self.kind,
        })
    }

    fn encode(&self, e: &mut Enc) {
        e.size(self.phase);
        e.size(self.attempt);
        e.str(&self.oracle);
        match self.component {
            None => e.u8(0),
            Some(c) => {
                e.u8(1);
                e.size(c);
            }
        }
        let (tag, a, b) = match self.kind {
            FaultEventKind::OraclePanicked => (0u8, 0u64, 0u64),
            FaultEventKind::OracleInvalidOutput => (1, 0, 0),
            FaultEventKind::OracleUnderDelivered { delivered, required } => {
                (2, delivered as u64, required as u64)
            }
            FaultEventKind::OracleStalled { steps, tolerance } => {
                (3, steps as u64, tolerance as u64)
            }
            FaultEventKind::FallbackEngaged => (4, 0, 0),
            FaultEventKind::RetriesExhausted { attempts } => (5, attempts as u64, 0),
        };
        e.u8(tag);
        e.u64(a);
        e.u64(b);
    }

    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let phase = d.size()?;
        let attempt = d.size()?;
        let oracle = d.str()?;
        let component = match d.u8()? {
            0 => None,
            1 => Some(d.size()?),
            _ => return None,
        };
        let tag = d.u8()?;
        let a = d.u64()?;
        let b = d.u64()?;
        let kind = match tag {
            0 => FaultEventKind::OraclePanicked,
            1 => FaultEventKind::OracleInvalidOutput,
            2 => FaultEventKind::OracleUnderDelivered {
                delivered: usize::try_from(a).ok()?,
                required: usize::try_from(b).ok()?,
            },
            3 => FaultEventKind::OracleStalled {
                steps: usize::try_from(a).ok()?,
                tolerance: usize::try_from(b).ok()?,
            },
            4 => FaultEventKind::FallbackEngaged,
            5 => FaultEventKind::RetriesExhausted { attempts: usize::try_from(a).ok()? },
            _ => return None,
        };
        Some(StoredFaultEvent { phase, attempt, oracle, component, kind })
    }
}

/// One committed phase, durably recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalPhase {
    /// Phase index (must be sequential from 0).
    pub phase: usize,
    /// [`ConflictGraph::fingerprint`] of the conflict graph at phase
    /// start, so replay can prove the stored set was chosen on the graph
    /// the replay cursor actually reached.
    pub cg_fingerprint: u64,
    /// The committed independent set's vertices (conflict-graph node
    /// indices).
    pub set: Vec<u64>,
    /// The phase's [`PhaseRecord`], exactly as the driver emitted it.
    pub record: PhaseRecord,
    /// The Lemma 2.1 quota the original run *enforced* on the accepted
    /// set (`0` = none was enforced: the trusting driver, heuristic
    /// oracles, or the component-parallel resilient path whose
    /// per-component quotas do not reduce to one number).
    pub quota_required: usize,
    /// Whether the accepted set came from the primary oracle (slot 0) —
    /// gates the decay re-check on replay exactly as it gated the
    /// original run.
    pub primary: bool,
    /// Cumulative `independent_set` invocations per chain slot after
    /// this phase — the positions [`MaxIsOracle::resume_at`] restores
    /// so per-call fault schedules stay aligned on resume.
    ///
    /// [`MaxIsOracle::resume_at`]: pslocal_maxis::MaxIsOracle::resume_at
    pub chain_calls: Vec<u64>,
    /// Cumulative retries after this phase (resilient driver).
    pub retries: u64,
    /// Cumulative fallback engagements after this phase.
    pub fallbacks: u64,
    /// Fault events logged during this phase.
    pub events: Vec<StoredFaultEvent>,
}

impl JournalPhase {
    fn encode(&self, e: &mut Enc) {
        e.u8(TAG_PHASE);
        e.size(self.phase);
        e.u64(self.cg_fingerprint);
        e.u32(self.set.len() as u32);
        for &v in &self.set {
            e.u64(v);
        }
        e.size(self.record.phase);
        e.size(self.record.edges_before);
        e.size(self.record.conflict_nodes);
        e.size(self.record.conflict_edges);
        e.size(self.record.independent_set_size);
        e.size(self.record.edges_removed);
        e.size(self.record.edges_after);
        e.size(self.quota_required);
        e.u8(self.primary as u8);
        e.u32(self.chain_calls.len() as u32);
        for &c in &self.chain_calls {
            e.u64(c);
        }
        e.u64(self.retries);
        e.u64(self.fallbacks);
        e.u32(self.events.len() as u32);
        for ev in &self.events {
            ev.encode(e);
        }
    }

    /// Decodes the payload *after* the tag byte.
    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let phase = d.size()?;
        let cg_fingerprint = d.u64()?;
        let set_len = d.u32()? as usize;
        if set_len > MAX_RECORD_LEN / 8 {
            return None;
        }
        let mut set = Vec::with_capacity(set_len);
        for _ in 0..set_len {
            set.push(d.u64()?);
        }
        let record = PhaseRecord {
            phase: d.size()?,
            edges_before: d.size()?,
            conflict_nodes: d.size()?,
            conflict_edges: d.size()?,
            independent_set_size: d.size()?,
            edges_removed: d.size()?,
            edges_after: d.size()?,
        };
        let quota_required = d.size()?;
        let primary = match d.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let calls_len = d.u32()? as usize;
        if calls_len > 1024 {
            return None;
        }
        let mut chain_calls = Vec::with_capacity(calls_len);
        for _ in 0..calls_len {
            chain_calls.push(d.u64()?);
        }
        let retries = d.u64()?;
        let fallbacks = d.u64()?;
        let events_len = d.u32()? as usize;
        if events_len > MAX_RECORD_LEN / 16 {
            return None;
        }
        let mut events = Vec::with_capacity(events_len);
        for _ in 0..events_len {
            events.push(StoredFaultEvent::decode(d)?);
        }
        Some(JournalPhase {
            phase,
            cg_fingerprint,
            set,
            record,
            quota_required,
            primary,
            chain_calls,
            retries,
            fallbacks,
            events,
        })
    }
}

// ---------------------------------------------------------------------
// The journal file
// ---------------------------------------------------------------------

/// What [`PhaseJournal::open`] found on disk before any semantic
/// validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenStats {
    /// Total file size in bytes.
    pub bytes_total: u64,
    /// Trailing bytes discarded as structurally invalid (bad CRC, bad
    /// length, partial record, undecodable payload).
    pub bytes_discarded: u64,
    /// Complete-looking records inside the discarded tail (a partial
    /// trailing record counts as one).
    pub records_discarded: usize,
}

/// The write-ahead phase journal: a checkpoint directory's durable
/// record of a reduction run. See the [module docs](self) for the byte
/// format and durability argument.
#[derive(Debug)]
pub struct PhaseJournal {
    path: PathBuf,
    header: JournalHeader,
    phases: Vec<JournalPhase>,
    /// File offset just past the header record (`ends[0]`) and past
    /// each phase record (`ends[i + 1]`); the last entry is the size on
    /// disk.
    ends: Vec<u64>,
}

impl PhaseJournal {
    /// The journal file path inside `dir`.
    pub fn file_path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE_NAME)
    }

    /// Starts a fresh journal in `dir` (creating the directory,
    /// overwriting any previous journal): the magic and the header
    /// record in one write, `sync_all`, then a best-effort fsync of
    /// `dir` so the file's name is durable too.
    pub fn create(dir: &Path, header: JournalHeader) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = Self::file_path(dir);
        let bytes = frame(JOURNAL_MAGIC.to_vec(), |e| header.encode(e));
        let mut file = fs::File::create(&path)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        // Directory fsync is platform-dependent; failure here does not
        // un-write the data, so it is best-effort.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(PhaseJournal { path, header, phases: Vec::new(), ends: vec![bytes.len() as u64] })
    }

    /// Opens an existing journal in `dir`, keeping the longest
    /// structurally valid record prefix.
    ///
    /// Returns `Ok(None, stats)` when there is no usable journal: the
    /// file is absent, or corruption reaches into the magic/header
    /// itself (`stats` then accounts the whole file as discarded).
    /// Structural validation only — CRC, bounds, decodability, and
    /// sequential phase indices; semantic validation against the
    /// instance is `open_or_replay`'s job.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures; corruption is never an `Err`.
    pub fn open(dir: &Path) -> io::Result<(Option<Self>, OpenStats)> {
        let path = Self::file_path(dir);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((None, OpenStats::default()))
            }
            Err(e) => return Err(e),
        };
        let total = bytes.len() as u64;
        let all_discarded = OpenStats {
            bytes_total: total,
            bytes_discarded: total,
            records_discarded: if total > 0 { 1 } else { 0 },
        };
        if bytes.len() < JOURNAL_MAGIC.len() || bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Ok((None, all_discarded));
        }

        let mut pos = JOURNAL_MAGIC.len();
        let mut header: Option<JournalHeader> = None;
        let mut phases: Vec<JournalPhase> = Vec::new();
        let mut ends: Vec<u64> = Vec::new();
        loop {
            if pos == bytes.len() {
                break; // clean end
            }
            let Some(frame) = bytes.get(pos..pos + 8) else { break };
            // pslocal: allow(panic-path, "frame is an 8-byte slice by the get() above, so both 4-byte halves convert infallibly")
            let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
            // pslocal: allow(panic-path, "frame is an 8-byte slice by the get() above, so both 4-byte halves convert infallibly")
            let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
            // Bounds first: a flipped bit in `len` must not send the
            // CRC check (or an allocation) off the end of the file.
            if len == 0 || len > MAX_RECORD_LEN {
                break;
            }
            let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else { break };
            if crc32(payload) != crc {
                break;
            }
            let mut d = Dec::new(payload);
            let Some(tag) = d.u8() else { break };
            match (tag, header.is_some()) {
                (TAG_HEADER, false) => {
                    let Some(h) = JournalHeader::decode(&mut d) else { break };
                    if !d.done() {
                        break;
                    }
                    header = Some(h);
                }
                (TAG_PHASE, true) => {
                    let Some(p) = JournalPhase::decode(&mut d) else { break };
                    // Sequential from 0 — an out-of-order record and
                    // everything after it is unusable.
                    if !d.done() || p.phase != phases.len() {
                        break;
                    }
                    phases.push(p);
                }
                _ => break,
            }
            pos += 8 + len;
            ends.push(pos as u64);
        }

        let Some(header) = header else {
            return Ok((None, all_discarded));
        };
        // Count complete-looking frames in the discarded tail so the
        // recovery report can say "N records dropped", not just bytes.
        let mut records_discarded = 0usize;
        let mut scan = pos;
        while scan < bytes.len() {
            let Some(frame) = bytes.get(scan..scan + 8) else {
                records_discarded += 1; // partial trailing frame
                break;
            };
            // pslocal: allow(panic-path, "frame is an 8-byte slice by the get() above, so the 4-byte prefix converts infallibly")
            let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
            records_discarded += 1;
            if len == 0 || len > MAX_RECORD_LEN || scan + 8 + len > bytes.len() {
                break;
            }
            scan += 8 + len;
        }
        let stats = OpenStats {
            bytes_total: total,
            bytes_discarded: (bytes.len() - pos) as u64,
            records_discarded,
        };
        Ok((Some(PhaseJournal { path, header, phases, ends }), stats))
    }

    /// The header record.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// The structurally valid phase records, in order.
    pub fn phases(&self) -> &[JournalPhase] {
        &self.phases
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The journal's size on disk in bytes: the end of its last record.
    pub fn bytes(&self) -> u64 {
        self.ends[self.phases.len()]
    }

    /// Appends one phase record: one write of its frame at the end of
    /// the file, then `sync_data`. Returns the journal's new size in
    /// bytes. A crash mid-write tears only this record, which the next
    /// [`open`](Self::open) drops. The file must end where the journal
    /// does: after an `open` that discarded a tail, cut it first with
    /// [`truncate_phases`](Self::truncate_phases), as replay does.
    ///
    /// # Errors
    ///
    /// Any I/O failure, including a journal file that no longer exists:
    /// an append never re-creates it.
    pub fn append_phase(&mut self, phase: JournalPhase) -> io::Result<u64> {
        let bytes = frame(Vec::new(), |e| phase.encode(e));
        let mut file = fs::OpenOptions::new().append(true).open(&self.path)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        let end = self.bytes() + bytes.len() as u64;
        self.phases.push(phase);
        self.ends.push(end);
        Ok(end)
    }

    /// Cuts the file just past the header and the first `keep` phase
    /// records (`set_len`, then `sync_all`), dropping everything after
    /// them: later records and any unparsable tail alike. This is the
    /// discard step of replay. Returns the new size in bytes.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn truncate_phases(&mut self, keep: usize) -> io::Result<u64> {
        let keep = keep.min(self.phases.len());
        let file = fs::OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(self.ends[keep])?;
        file.sync_all()?;
        self.phases.truncate(keep);
        self.ends.truncate(keep + 1);
        Ok(self.bytes())
    }
}

// ---------------------------------------------------------------------
// Crash injection (driver-side kill points)
// ---------------------------------------------------------------------

/// How an injected crash takes the process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Panic with a [`CrashSignal`] payload — catchable by a test
    /// harness's `catch_unwind`, used by the in-process suites.
    Panic,
    /// [`std::process::abort`] — no unwinding, no destructors: the real
    /// thing, used by the CLI's `--crash-at` for subprocess-kill tests.
    Abort,
}

/// A scheduled kill point inside a checkpointing driver: die at
/// `phase` when execution reaches `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Phase to die in.
    pub phase: usize,
    /// Where within the phase.
    pub point: CrashPoint,
    /// Panic (testable) or abort (real).
    pub mode: CrashMode,
}

impl CrashPlan {
    /// A panicking kill point (in-process tests).
    pub fn panicking(phase: usize, point: CrashPoint) -> Self {
        CrashPlan { phase, point, mode: CrashMode::Panic }
    }

    /// An aborting kill point (subprocess tests, CLI `--crash-at`).
    pub fn aborting(phase: usize, point: CrashPoint) -> Self {
        CrashPlan { phase, point, mode: CrashMode::Abort }
    }

    /// Parses the CLI syntax `PHASE:POINT`, e.g. `2:before-journal`.
    pub fn parse_spec(s: &str) -> Option<(usize, CrashPoint)> {
        let (phase, point) = s.split_once(':')?;
        Some((phase.parse().ok()?, CrashPoint::parse(point)?))
    }

    /// Dies if `(phase, point)` is this plan's kill point; returns
    /// normally otherwise.
    pub fn maybe_crash(&self, phase: usize, point: CrashPoint) {
        if phase != self.phase || point != self.point {
            return;
        }
        match self.mode {
            CrashMode::Abort => {
                eprintln!("injected crash: aborting at phase {phase} ({point})");
                std::process::abort();
            }
            CrashMode::Panic => std::panic::panic_any(CrashSignal { phase, point }),
        }
    }
}

/// Driver-side helper: fire `plan`'s kill point if one is configured.
pub(crate) fn maybe_crash(plan: Option<&CrashPlan>, phase: usize, point: CrashPoint) {
    if let Some(p) = plan {
        p.maybe_crash(phase, point);
    }
}

// ---------------------------------------------------------------------
// Driver-facing configuration and report
// ---------------------------------------------------------------------

/// Checkpointing configuration for the `*_resumable` driver entry
/// points.
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Directory holding the journal (created if absent).
    pub dir: PathBuf,
    /// Replay an existing journal instead of starting fresh. Without
    /// this, any previous journal in `dir` is overwritten.
    pub resume: bool,
    /// Optional injected kill point (crash-recovery tests, CLI
    /// `--crash-at`).
    pub crash: Option<CrashPlan>,
}

impl Checkpointing {
    /// Checkpoint into `dir`, starting fresh.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Checkpointing { dir: dir.into(), resume: false, crash: None }
    }

    /// Replays `dir`'s journal before running.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Installs an injected kill point.
    pub fn with_crash(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }
}

/// What the recovery layer did at startup; returned alongside the
/// outcome by every `*_resumable` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// A journal file existed and replay was attempted.
    pub resumed: bool,
    /// Phases accepted from the journal (skipped, not recomputed).
    pub phases_recovered: usize,
    /// Records rejected — structurally at open plus semantically at
    /// replay — and therefore recomputed.
    pub records_discarded: usize,
    /// Bytes cut from the journal at startup: the structurally invalid
    /// tail, plus every record from the first one replay rejected.
    pub bytes_discarded: u64,
    /// The journal's size on disk after the run's last write to it
    /// (startup's create or cut, then each phase append).
    pub journal_bytes: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.resumed {
            return write!(f, "fresh journal ({} bytes)", self.journal_bytes);
        }
        write!(
            f,
            "resumed: {} phase(s) recovered, {} record(s) discarded ({} bytes), journal {} bytes",
            self.phases_recovered, self.records_discarded, self.bytes_discarded, self.journal_bytes
        )
    }
}

/// Errors of the recovery layer itself (not of the reduction).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O failure while reading or durably writing the journal.
    Io {
        /// The underlying error, stringified ([`std::io::Error`] is not
        /// `Clone`).
        message: String,
    },
    /// A structurally valid journal whose header disagrees with the
    /// requested run — almost certainly the wrong checkpoint directory,
    /// so the journal is preserved and the resume refused.
    HeaderMismatch {
        /// The first disagreeing header field.
        field: &'static str,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { message } => write!(f, "journal I/O error: {message}"),
            JournalError::HeaderMismatch { field } => {
                write!(f, "journal header mismatch on `{field}` (wrong checkpoint directory?)")
            }
        }
    }
}

impl Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io { message: e.to_string() }
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// The run parameters replay validates records against — everything
/// the driver computed before its phase loop.
pub(crate) struct ReplayCtx<'a> {
    pub h: &'a Hypergraph,
    pub driver: DriverKind,
    pub k: usize,
    pub lambda: f64,
    pub rho: usize,
    pub budget: usize,
    pub threads: usize,
    /// Decay re-check applies to primary-accepted phases (certified
    /// oracle, no λ override) — exactly when the original run enforced
    /// it.
    pub enforce_decay: bool,
    pub chain_names: Vec<&'static str>,
}

impl ReplayCtx<'_> {
    fn expected_header(&self) -> JournalHeader {
        JournalHeader {
            driver: self.driver,
            k: self.k,
            lambda_bits: self.lambda.to_bits(),
            rho: self.rho,
            budget: self.budget,
            threads: self.threads,
            instance_fingerprint: fingerprint_hypergraph(self.h),
            oracle_names: self.chain_names.iter().map(|n| n.to_string()).collect(),
        }
    }
}

/// Replayed driver state: the journal (truncated to its validated
/// prefix), the startup report, and every accumulator the driver must
/// continue from.
pub(crate) struct Replayed {
    pub journal: PhaseJournal,
    pub report: RecoveryReport,
    /// Next phase to execute.
    pub phase: usize,
    pub records: Vec<PhaseRecord>,
    /// Cumulative oracle calls per chain slot (resume positions).
    pub chain_calls: Vec<u64>,
    pub retries: u64,
    pub fallbacks: u64,
    pub fault_log: Vec<FaultEvent>,
}

fn field_mismatch(expected: &JournalHeader, found: &JournalHeader) -> Option<&'static str> {
    if found.driver != expected.driver {
        return Some("driver");
    }
    if found.instance_fingerprint != expected.instance_fingerprint {
        return Some("instance_fingerprint");
    }
    if found.k != expected.k {
        return Some("k");
    }
    if found.lambda_bits != expected.lambda_bits {
        return Some("lambda");
    }
    if found.rho != expected.rho {
        return Some("rho");
    }
    if found.budget != expected.budget {
        return Some("budget");
    }
    if found.threads != expected.threads {
        return Some("threads");
    }
    if found.oracle_names != expected.oracle_names {
        return Some("oracle_names");
    }
    None
}

/// Opens (or freshly creates) the journal in `ckpt.dir` and replays
/// its validated prefix into the driver's live state (`cg`,
/// `coloring`, `residual` are advanced past every accepted phase).
///
/// See the [module docs](self) for the replay state machine. On any
/// rejection the in-memory commit of the offending record is rolled
/// back and the remaining phases are left for live execution. Either
/// way the file is cut to the accepted prefix, so the next append
/// lands right after it.
pub(crate) fn open_or_replay<S: Sink>(
    ctx: &ReplayCtx<'_>,
    ckpt: &Checkpointing,
    cg: &mut ConflictGraph,
    coloring: &mut Multicoloring,
    residual: &mut Vec<HyperedgeId>,
    parent: &Span<'_, S>,
) -> Result<Replayed, JournalError> {
    let expected = ctx.expected_header();
    let slots = ctx.chain_names.len();
    let fresh = |journal: PhaseJournal, report: RecoveryReport| Replayed {
        report: RecoveryReport { journal_bytes: journal.bytes(), ..report },
        journal,
        phase: 0,
        records: Vec::new(),
        chain_calls: vec![0; slots],
        retries: 0,
        fallbacks: 0,
        fault_log: Vec::new(),
    };

    if !ckpt.resume {
        return Ok(fresh(PhaseJournal::create(&ckpt.dir, expected)?, RecoveryReport::default()));
    }

    let (opened, stats) = PhaseJournal::open(&ckpt.dir)?;
    let Some(mut journal) = opened else {
        // Absent or corrupt beyond the header: start fresh, but account
        // for what was thrown away.
        let report = RecoveryReport {
            resumed: stats.bytes_total > 0,
            records_discarded: stats.records_discarded,
            bytes_discarded: stats.bytes_discarded,
            ..Default::default()
        };
        return Ok(fresh(PhaseJournal::create(&ckpt.dir, expected)?, report));
    };
    if let Some(field) = field_mismatch(&expected, journal.header()) {
        return Err(JournalError::HeaderMismatch { field });
    }

    let replay_span = span!(parent, names::RECOVERY_REPLAY);
    let mut records: Vec<PhaseRecord> = Vec::new();
    let mut fault_log: Vec<FaultEvent> = Vec::new();
    let mut chain_calls: Vec<u64> = vec![0; slots];
    let mut retries = 0u64;
    let mut fallbacks = 0u64;
    let mut phase = 0usize;

    for jp in journal.phases() {
        debug_assert_eq!(jp.phase, phase, "open() guarantees sequential indices");
        let valid = validate_and_commit(
            ctx,
            jp,
            phase,
            cg,
            coloring,
            residual,
            &chain_calls,
            (retries, fallbacks),
        );
        let Some(committed) = valid else { break };
        records.push(jp.record.clone());
        fault_log.extend(committed.events);
        chain_calls.clone_from(&jp.chain_calls);
        retries = jp.retries;
        fallbacks = jp.fallbacks;
        phase += 1;
        replay_span.add(Counter::PhasesRecovered, 1);
        if !residual.is_empty() && phase < ctx.budget {
            *cg = cg.restrict_to_edges(&committed.keep_pos);
        }
    }

    // The first rejected record goes together with everything after it,
    // unparsable tail included.
    let records_discarded = stats.records_discarded + (journal.phases().len() - phase);
    let journal_bytes = journal.truncate_phases(phase)?;
    replay_span.close();

    Ok(Replayed {
        journal,
        report: RecoveryReport {
            resumed: true,
            phases_recovered: phase,
            records_discarded,
            bytes_discarded: stats.bytes_total - journal_bytes,
            journal_bytes,
        },
        phase,
        records,
        chain_calls,
        retries,
        fallbacks,
        fault_log,
    })
}

struct CommittedReplay {
    keep_pos: Vec<HyperedgeId>,
    events: Vec<FaultEvent>,
}

/// One record through replay steps 2–5 (see module docs). `None` =
/// rejected; the in-memory state is exactly as before the call.
#[allow(clippy::too_many_arguments)]
fn validate_and_commit(
    ctx: &ReplayCtx<'_>,
    jp: &JournalPhase,
    phase: usize,
    cg: &mut ConflictGraph,
    coloring: &mut Multicoloring,
    residual: &mut Vec<HyperedgeId>,
    prev_calls: &[u64],
    prev_counts: (u64, u64),
) -> Option<CommittedReplay> {
    // Counters may only grow, and the chain shape is fixed.
    if jp.chain_calls.len() != prev_calls.len()
        || jp.chain_calls.iter().zip(prev_calls).any(|(now, before)| now < before)
        || jp.retries < prev_counts.0
        || jp.fallbacks < prev_counts.1
    {
        return None;
    }
    // Fingerprint: the set must have been chosen on *this* graph.
    // Replay reads the same accessors as the live loop, so a dense
    // phase graph never materializes its CSR here either.
    if jp.cg_fingerprint != cg.fingerprint() {
        return None;
    }
    // Independence: range and adjacency, re-checked on whichever
    // representation is resident. The range check runs first because
    // `NodeId::new` panics on ids past `u32::MAX`.
    let n = cg.node_count();
    if jp.set.iter().any(|&v| v >= n as u64) {
        return None;
    }
    let vertices: Vec<NodeId> = jp.set.iter().map(|&v| NodeId::new(v as usize)).collect();
    let set = IndependentSet::new_unchecked(vertices);
    if !cg.verify_independent(&set) || set.len() < jp.quota_required {
        return None;
    }
    // Events must intern against the live chain.
    let mut events = Vec::with_capacity(jp.events.len());
    for ev in &jp.events {
        events.push(ev.intern(&ctx.chain_names)?);
    }
    // Re-commit and compare: the stored record must be *exactly* what
    // committing this set produces. Snapshot first so a lying record
    // can be rolled back.
    let coloring_snapshot = coloring.clone();
    let residual_snapshot = residual.clone();
    let edges_before = residual.len();
    let commit = commit_phase(ctx.h, cg, &set, ctx.k, phase, coloring, residual);
    let reproduced = PhaseRecord {
        phase,
        edges_before,
        conflict_nodes: cg.node_count(),
        conflict_edges: cg.edge_count(),
        independent_set_size: set.len(),
        edges_removed: edges_before - commit.edges_after,
        edges_after: commit.edges_after,
    };
    let decay_ok = !(ctx.enforce_decay && jp.primary)
        || commit.edges_after <= decay_allowed(edges_before, ctx.lambda);
    if reproduced != jp.record || !decay_ok {
        *coloring = coloring_snapshot;
        *residual = residual_snapshot;
        return None;
    }
    Some(CommittedReplay { keep_pos: commit.keep_pos, events })
}

// ---------------------------------------------------------------------
// Inspection (CLI `checkpoint-inspect`)
// ---------------------------------------------------------------------

/// A human-oriented summary of a checkpoint directory, produced without
/// any live run configuration (structural validation only).
#[derive(Debug, Clone)]
pub struct JournalInspection {
    /// The validated header.
    pub header: JournalHeader,
    /// Structural open stats.
    pub stats: OpenStats,
    /// Per-phase summaries of the valid prefix.
    pub phases: Vec<JournalPhase>,
}

/// Inspects the journal in `dir` without replaying it.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read or holds no
/// structurally valid header (an absent file reports as I/O: there is
/// nothing to inspect).
pub fn inspect_journal(dir: &Path) -> Result<JournalInspection, JournalError> {
    let (opened, stats) = PhaseJournal::open(dir)?;
    let Some(journal) = opened else {
        let message = if stats.bytes_total == 0 {
            format!("no journal found at {}", PhaseJournal::file_path(dir).display())
        } else {
            format!(
                "journal at {} is corrupt before the header ({} bytes unusable)",
                PhaseJournal::file_path(dir).display(),
                stats.bytes_total
            )
        };
        return Err(JournalError::Io { message });
    };
    Ok(JournalInspection { header: journal.header.clone(), stats, phases: journal.phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::classic::cycle;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pslocal-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn header(names: &[&str]) -> JournalHeader {
        JournalHeader {
            driver: DriverKind::Resilient,
            k: 3,
            lambda_bits: 4.0f64.to_bits(),
            rho: 7,
            budget: 7,
            threads: 1,
            instance_fingerprint: 0xDEAD_BEEF,
            oracle_names: names.iter().map(|n| n.to_string()).collect(),
        }
    }

    fn phase_rec(phase: usize) -> JournalPhase {
        JournalPhase {
            phase,
            cg_fingerprint: 42 + phase as u64,
            set: vec![1, 3, 5],
            record: PhaseRecord {
                phase,
                edges_before: 10 - phase,
                conflict_nodes: 30,
                conflict_edges: 80,
                independent_set_size: 3,
                edges_removed: 1,
                edges_after: 9 - phase,
            },
            quota_required: 2,
            primary: phase.is_multiple_of(2),
            chain_calls: vec![phase as u64 + 1, 0],
            retries: phase as u64,
            fallbacks: 0,
            events: vec![StoredFaultEvent {
                phase,
                attempt: 0,
                oracle: "greedy".into(),
                component: None,
                kind: FaultEventKind::OracleStalled { steps: 9, tolerance: 8 },
            }],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn journal_roundtrip_preserves_every_field() {
        let dir = temp_dir("roundtrip");
        let mut j = PhaseJournal::create(&dir, header(&["greedy", "exact"])).unwrap();
        j.append_phase(phase_rec(0)).unwrap();
        j.append_phase(phase_rec(1)).unwrap();
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        let opened = opened.expect("journal parses");
        assert_eq!(opened.header(), &header(&["greedy", "exact"]));
        assert_eq!(opened.phases(), &[phase_rec(0), phase_rec(1)]);
        assert_eq!(stats.bytes_discarded, 0);
        assert_eq!(stats.records_discarded, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_opens_as_none() {
        let dir = temp_dir("missing");
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        assert!(opened.is_none());
        assert_eq!(stats, OpenStats::default());
    }

    #[test]
    fn bad_magic_discards_whole_file() {
        let dir = temp_dir("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(PhaseJournal::file_path(&dir), b"NOTAJOURNAL").unwrap();
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        assert!(opened.is_none());
        assert_eq!(stats.bytes_discarded, stats.bytes_total);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_keeps_the_good_prefix() {
        let dir = temp_dir("truncate");
        let mut j = PhaseJournal::create(&dir, header(&["greedy"])).unwrap();
        j.append_phase(phase_rec(0)).unwrap();
        let good_len = fs::metadata(j.path()).unwrap().len();
        j.append_phase(phase_rec(1)).unwrap();
        // Simulate a crash-torn append: cut the file mid-record.
        let bytes = fs::read(j.path()).unwrap();
        fs::write(j.path(), &bytes[..good_len as usize + 5]).unwrap();
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        let opened = opened.expect("prefix survives");
        assert_eq!(opened.phases().len(), 1);
        assert_eq!(opened.phases()[0], phase_rec(0));
        assert_eq!(stats.records_discarded, 1);
        assert_eq!(stats.bytes_discarded, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_report_the_file_length_and_leave_one_file() {
        let dir = temp_dir("append");
        let mut j = PhaseJournal::create(&dir, header(&["greedy"])).unwrap();
        let on_disk = |j: &PhaseJournal| fs::metadata(j.path()).unwrap().len();
        assert_eq!(j.bytes(), on_disk(&j));
        for phase in 0..3 {
            let bytes = j.append_phase(phase_rec(phase)).unwrap();
            assert_eq!(bytes, on_disk(&j), "phase {phase}");
            assert_eq!(j.bytes(), bytes);
            let files: Vec<_> =
                fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            assert_eq!(files, [JOURNAL_FILE_NAME], "no temp file beside the journal");
        }
        // A cut lands on a record boundary, so nothing is left to discard.
        let cut = j.truncate_phases(1).unwrap();
        assert_eq!(cut, on_disk(&j));
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        assert_eq!(opened.expect("prefix survives").phases(), &[phase_rec(0)]);
        assert_eq!(stats.bytes_discarded, 0);
        // An append never re-creates a journal deleted under it.
        fs::remove_file(j.path()).unwrap();
        assert!(j.append_phase(phase_rec(1)).is_err());
        assert!(!j.path().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_bit_flip_is_caught_or_harmless() {
        // Flip each byte of a small journal once: open() must never
        // panic, and the result is either the original content (flip in
        // slack the parser re-derives, which cannot happen here) or a
        // strictly shorter valid prefix.
        let dir = temp_dir("bitflip");
        let mut j = PhaseJournal::create(&dir, header(&["greedy"])).unwrap();
        j.append_phase(phase_rec(0)).unwrap();
        let pristine = fs::read(j.path()).unwrap();
        for pos in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[pos] ^= 0x40;
            fs::write(j.path(), &corrupt).unwrap();
            let (opened, _) = PhaseJournal::open(&dir).unwrap();
            if let Some(parsed) = opened {
                assert!(
                    parsed.phases().is_empty() || corrupt == pristine,
                    "flip at byte {pos} went undetected"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_phase_indices_are_rejected() {
        let dir = temp_dir("order");
        let mut j = PhaseJournal::create(&dir, header(&["greedy"])).unwrap();
        j.append_phase(phase_rec(0)).unwrap();
        j.append_phase(phase_rec(2)).unwrap(); // gap: should be 1
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        assert_eq!(opened.expect("prefix survives").phases().len(), 1);
        assert_eq!(stats.records_discarded, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_field_is_bounded() {
        let dir = temp_dir("length");
        let j = PhaseJournal::create(&dir, header(&["greedy"])).unwrap();
        let mut bytes = fs::read(j.path()).unwrap();
        // Append a frame whose length claims far more than the file holds.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        fs::write(j.path(), &bytes).unwrap();
        let (opened, stats) = PhaseJournal::open(&dir).unwrap();
        assert!(opened.is_some(), "header prefix still valid");
        assert_eq!(stats.records_discarded, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_mismatch_fields_are_reported() {
        let a = header(&["greedy"]);
        for (field, mutate) in [
            (
                "driver",
                Box::new(|h: &mut JournalHeader| h.driver = DriverKind::Trusting)
                    as Box<dyn Fn(&mut JournalHeader)>,
            ),
            ("instance_fingerprint", Box::new(|h| h.instance_fingerprint ^= 1)),
            ("k", Box::new(|h| h.k += 1)),
            ("lambda", Box::new(|h| h.lambda_bits ^= 1)),
            ("rho", Box::new(|h| h.rho += 1)),
            ("budget", Box::new(|h| h.budget += 1)),
            ("threads", Box::new(|h| h.threads += 1)),
            ("oracle_names", Box::new(|h| h.oracle_names.push("extra".into()))),
        ] {
            let mut b = a.clone();
            mutate(&mut b);
            assert_eq!(field_mismatch(&a, &b), Some(field));
        }
        assert_eq!(field_mismatch(&a, &a.clone()), None);
    }

    #[test]
    fn fingerprints_separate_instances_and_graphs() {
        let g1 = cycle(10);
        let g2 = cycle(11);
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        assert_eq!(g1.fingerprint(), cycle(10).fingerprint());
        let h1 = Hypergraph::from_edges(6, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let h2 = Hypergraph::from_edges(6, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
        assert_ne!(fingerprint_hypergraph(&h1), fingerprint_hypergraph(&h2));
        assert_eq!(fingerprint_hypergraph(&h1), {
            let h = Hypergraph::from_edges(6, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
            fingerprint_hypergraph(&h)
        });
    }

    #[test]
    fn stored_fault_event_interns_only_known_oracles() {
        let ev = StoredFaultEvent {
            phase: 1,
            attempt: 2,
            oracle: "greedy".into(),
            component: Some(4),
            kind: FaultEventKind::FallbackEngaged,
        };
        let interned = ev.intern(&["exact", "greedy"]).expect("known name");
        assert_eq!(interned.oracle, "greedy");
        assert_eq!(interned.component, Some(4));
        assert!(ev.intern(&["exact"]).is_none());
        assert_eq!(StoredFaultEvent::from_event(&interned), ev);
    }

    #[test]
    fn crash_plan_parses_cli_spec() {
        assert_eq!(CrashPlan::parse_spec("2:before-journal"), Some((2, CrashPoint::BeforeJournal)));
        assert_eq!(CrashPlan::parse_spec("0:mid-oracle"), Some((0, CrashPoint::MidOracle)));
        assert_eq!(CrashPlan::parse_spec("x:mid-oracle"), None);
        assert_eq!(CrashPlan::parse_spec("1:nowhere"), None);
        assert_eq!(CrashPlan::parse_spec("nocolon"), None);
    }

    #[test]
    fn crash_plan_panics_with_signal_at_its_point_only() {
        let plan = CrashPlan::panicking(1, CrashPoint::AfterOracle);
        plan.maybe_crash(0, CrashPoint::AfterOracle); // wrong phase: no-op
        plan.maybe_crash(1, CrashPoint::BeforeJournal); // wrong point: no-op
        let err = std::panic::catch_unwind(|| plan.maybe_crash(1, CrashPoint::AfterOracle))
            .expect_err("kill point fires");
        let sig = err.downcast_ref::<CrashSignal>().expect("typed payload");
        assert_eq!(*sig, CrashSignal { phase: 1, point: CrashPoint::AfterOracle });
    }

    #[test]
    fn inspect_reports_absent_and_corrupt_journals() {
        let dir = temp_dir("inspect");
        let err = inspect_journal(&dir).unwrap_err();
        assert!(err.to_string().contains("no journal"));
        let mut j = PhaseJournal::create(&dir, header(&["greedy"])).unwrap();
        j.append_phase(phase_rec(0)).unwrap();
        let insp = inspect_journal(&dir).unwrap();
        assert_eq!(insp.header.k, 3);
        assert_eq!(insp.phases.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    fn planted(seed: u64, n: usize, m: usize, k: usize) -> Hypergraph {
        use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph
    }

    #[test]
    fn replay_reports_every_byte_it_cuts() {
        // Phase 1's record keeps a valid CRC but names the wrong graph
        // (one byte of its fingerprint flipped, the frame re-encoded),
        // so open() accepts it and replay rejects it. Its bytes and
        // everything after them are cut, and count as discarded.
        use crate::reduction::{reduce_cf_to_maxis_resumable, ReductionConfig};
        use pslocal_telemetry::Telemetry;
        let k = 3;
        let h = planted(22, 40, 18, k);
        let oracle = pslocal_maxis::PrecisionOracle::new(4.0);
        let run = |ckpt: &Checkpointing| {
            reduce_cf_to_maxis_resumable(
                &h,
                &oracle,
                ReductionConfig::new(k),
                ckpt,
                &Telemetry::disabled(),
            )
            .unwrap()
        };
        let dir = temp_dir("replay-cut");
        let (clean, _) = run(&Checkpointing::new(&dir));
        assert!(clean.phases_used >= 2, "need a phase 1 to corrupt");
        let pristine = fs::read(PhaseJournal::file_path(&dir)).unwrap();
        let (opened, _) = PhaseJournal::open(&dir).unwrap();
        let opened = opened.expect("clean journal parses");
        let mut j = PhaseJournal::create(&dir, opened.header().clone()).unwrap();
        let mut ends = Vec::new();
        for p in opened.phases() {
            let mut p = p.clone();
            if p.phase == 1 {
                p.cg_fingerprint ^= 0xFF << 8;
            }
            ends.push(j.append_phase(p).unwrap());
        }
        let before = fs::metadata(j.path()).unwrap().len();
        assert_eq!(before, pristine.len() as u64, "one byte flipped, none added");
        let (resumed, report) = run(&Checkpointing::new(&dir).resuming());
        assert_eq!(resumed.records, clean.records);
        assert_eq!(report.phases_recovered, 1);
        assert_eq!(report.records_discarded, opened.phases().len() - 1);
        // Replay cut the file to the end of phase 0; the resumed run then
        // appended phases 1.. again.
        assert_eq!(report.bytes_discarded, before - ends[0]);
        assert_eq!(fs::read(j.path()).unwrap(), pristine);
        assert_eq!(report.journal_bytes, before);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `(crc32, length)` of the journal a finished checkpointed run left.
    fn journal_digest(dir: &Path) -> (u32, usize) {
        let bytes = fs::read(PhaseJournal::file_path(dir)).unwrap();
        let _ = fs::remove_dir_all(dir);
        (crc32(&bytes), bytes.len())
    }

    #[test]
    fn trusting_journal_bytes_are_stable() {
        // Journals written by older binaries must stay resumable, so the
        // bytes a run writes are pinned, not just their round trip.
        use crate::reduction::{reduce_cf_to_maxis_resumable, ReductionConfig};
        use pslocal_telemetry::Telemetry;
        let k = 3;
        let h = planted(22, 40, 18, k);
        let dir = temp_dir("pin-trusting");
        let (out, _) = reduce_cf_to_maxis_resumable(
            &h,
            &pslocal_maxis::PrecisionOracle::new(4.0),
            ReductionConfig::new(k),
            &Checkpointing::new(&dir),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(out.phases_used >= 2, "pin a multi-phase journal");
        assert_eq!(journal_digest(&dir), (0xF683_D7C1, 808));
    }

    #[test]
    fn resilient_journal_bytes_are_stable() {
        use crate::resilient::{reduce_cf_resilient_resumable, ResilientConfig};
        use pslocal_maxis::{FaultKind, FaultPlan, FaultyOracle, PrecisionOracle};
        use pslocal_telemetry::Telemetry;
        let k = 3;
        let h = planted(32, 40, 18, k);
        let plan = FaultPlan::scripted(vec![None, Some(FaultKind::Panic)]);
        let flaky = FaultyOracle::new(PrecisionOracle::new(4.0), plan);
        let dir = temp_dir("pin-resilient");
        let (out, _) = reduce_cf_resilient_resumable(
            &h,
            &[&flaky],
            ResilientConfig::new(k),
            &Checkpointing::new(&dir),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(out.reduction.phases_used >= 2, "pin a multi-phase journal");
        assert_eq!(out.retries, 1, "the journal carries a retry and its fault event");
        assert_eq!(out.fault_log.len(), 1);
        assert_eq!(journal_digest(&dir), (0x0A47_7E66, 976));
    }
}
