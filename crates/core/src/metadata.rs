//! The disjoint metadata facilities of §5.1.
//!
//! SoftBound maps the *address of a pointer in memory* to that pointer's
//! `(base, bound)` metadata. Three organizations are implemented, with the
//! paper's own instruction-count costs:
//!
//! * [`HashTableFacility`] — open hashing over (tag, base, bound) entries;
//!   ~9 x86 instructions per lookup in the no-collision case (shift, mask,
//!   multiply, add, three loads, compare, branch), +3 per extra probe.
//! * [`ShadowPages`] — the tag-less direct map of the paper's reserved
//!   virtual-address region, realized as a two-level paged table: the high
//!   bits of the slot index a flat directory, the low bits index a
//!   `Box<[Meta]>` page allocated on first touch. Lookups are O(1) and
//!   branch-light (shift, mask, add, two loads ≈ 5 instructions) with no
//!   collisions by construction.
//! * [`ShadowHashMapFacility`] — the previous HashMap-backed *simulation*
//!   of the shadow space, kept as a differential-testing oracle and as the
//!   slow comparison point for the `metadata` microbenchmark.
//! * [`SharedShadowPages`] — the same paged direct map, but reading
//!   through a process-wide [`SharedShadowReservation`]: the 256 MiB
//!   directory is allocated once per process and each worker overlays it
//!   with copy-on-first-touch chunks, so a fleet pays the reservation
//!   once instead of once per worker.
//!
//! All facilities report their *simulated table addresses* through an
//! [`AccessSink`] so the VM's cache model sees the extra memory pressure
//! metadata accesses cause (the effect the paper observes on
//! treeadd/mst/health). Callers that do not model caches pass a sink whose
//! `wants_addresses()` is false ([`NoopSink`], or an [`RtCtx`] without a
//! cache), making the hot path allocation- and buffer-free.
//!
//! [`RtCtx`]: sb_vm::RtCtx

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

pub use sb_vm::{AccessSink, NoopSink, ScratchSink};

/// Synthetic base address of the simulated shadow-space region (the paper
/// reserves the middle of the virtual address space via `mmap`).
pub const SHADOW_BASE: u64 = 0x0000_1000_0000_0000;
/// Synthetic base address of the simulated hash table.
pub const HASHTABLE_BASE: u64 = 0x0000_1800_0000_0000;

/// Pointer metadata: `[base, bound)` addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meta {
    /// Lower bound (inclusive). 0 encodes "no access" (NULL bounds).
    pub base: u64,
    /// Upper bound (exclusive).
    pub bound: u64,
}

impl Meta {
    /// The NULL metadata (any dereference traps).
    pub const NULL: Meta = Meta { base: 0, bound: 0 };

    /// True if this is the NULL metadata.
    pub fn is_null(self) -> bool {
        self.base == 0 && self.bound == 0
    }
}

/// A metadata organization: address-of-pointer → metadata. Costs and
/// touched-table addresses are reported through the [`AccessSink`].
pub trait MetadataFacility {
    /// Facility name for diagnostics.
    fn name(&self) -> &'static str;

    /// Looks up the metadata for the pointer stored at `addr`. Returns
    /// [`Meta::NULL`] when absent.
    fn load(&mut self, addr: u64, sink: &mut dyn AccessSink) -> Meta;

    /// Stores metadata for the pointer stored at `addr`.
    fn store(&mut self, addr: u64, meta: Meta, sink: &mut dyn AccessSink);

    /// Clears every pointer-slot entry in `[addr, addr+len)` (8-byte
    /// aligned slots). Zero-length ranges touch nothing, even when
    /// `addr` is unaligned (the rounded-down slot lies outside an empty
    /// range).
    fn clear_range(&mut self, addr: u64, len: u64, sink: &mut dyn AccessSink) {
        if len == 0 {
            return;
        }
        let mut a = addr & !7;
        while a < addr + len {
            self.store(a, Meta::NULL, sink);
            a += 8;
        }
    }

    /// Copies metadata for every pointer slot from `[src, src+len)` to
    /// `[dst, dst+len)` (memcpy metadata handling, §5.2): each aligned
    /// 8-byte slot offset below `len` is copied exactly once, so an
    /// unaligned length (e.g. a 12-byte memcpy) still moves the slots at
    /// offsets 0 and 8 and nothing else.
    fn copy_range(&mut self, dst: u64, src: u64, len: u64, sink: &mut dyn AccessSink) {
        let mut off = 0;
        while off < len {
            let m = self.load(src + off, sink);
            self.store(dst + off, m, sink);
            off += 8;
        }
    }

    /// Number of live (non-NULL) entries — memory-overhead statistics.
    fn live_entries(&self) -> usize;

    /// Bytes of host memory this facility holds onto *between* runs —
    /// the standing reservation a fleet pays once per worker, not the
    /// transient per-run growth. For the paged shadow this is dominated
    /// by the flat directory (the analogue of the paper's `mmap`-reserved
    /// shadow region); for the hash table, by its head directory, the
    /// head chunks its runs have committed and the chain slab it reuses.
    /// The ROADMAP's shared-reservation follow-on needs this number
    /// measured per worker to size the win of sharing one reservation
    /// across a pool.
    fn reservation_bytes(&self) -> usize;

    /// The portion of [`reservation_bytes`](Self::reservation_bytes)
    /// that is *process-wide shared* state: one copy serves every
    /// facility built over the same reservation, so a fleet counts it
    /// once per pool rather than once per worker. 0 for the private
    /// facilities; [`SharedShadowPages`] reports its shared directory
    /// here.
    fn shared_reservation_bytes(&self) -> usize {
        0
    }

    /// Forgets every entry, restoring the facility to its
    /// just-constructed state while keeping its expensive allocations
    /// (the paged shadow's directory reservation, the hash table's
    /// committed head chunks and chain slab) alive for the next program
    /// run. Its cost scales with what the run touched, not with the
    /// reservation.
    /// This is the §5.1 disjoint-metadata payoff a session-oriented
    /// embedding exploits: program state and metadata state reset
    /// independently, so back-to-back runs on one
    /// [`Instance`](crate::Instance) skip the per-machine setup cost
    /// entirely.
    fn reset(&mut self);
}

/// Boxed facilities forward to their contents, so
/// `Box<dyn MetadataFacility>` plugs into the generic
/// [`SoftBoundRuntime`](crate::SoftBoundRuntime) as its type-erased
/// configuration ([`DynRuntime`](crate::DynRuntime)) — the facility is
/// then chosen at run time and every access pays one virtual call, which
/// is exactly the cost the generic runtime exists to avoid on hot paths.
impl<F: MetadataFacility + ?Sized> MetadataFacility for Box<F> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    #[inline]
    fn load(&mut self, addr: u64, sink: &mut dyn AccessSink) -> Meta {
        (**self).load(addr, sink)
    }

    #[inline]
    fn store(&mut self, addr: u64, meta: Meta, sink: &mut dyn AccessSink) {
        (**self).store(addr, meta, sink);
    }

    fn clear_range(&mut self, addr: u64, len: u64, sink: &mut dyn AccessSink) {
        (**self).clear_range(addr, len, sink);
    }

    fn copy_range(&mut self, dst: u64, src: u64, len: u64, sink: &mut dyn AccessSink) {
        (**self).copy_range(dst, src, len, sink);
    }

    fn live_entries(&self) -> usize {
        (**self).live_entries()
    }

    fn reservation_bytes(&self) -> usize {
        (**self).reservation_bytes()
    }

    fn shared_reservation_bytes(&self) -> usize {
        (**self).shared_reservation_bytes()
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

/// Approximates the standing host bytes of a `HashMap`'s *actual* bucket
/// layout. A `len()`-based estimate undercounts a standing reservation —
/// the table keeps its buckets when entries are removed — so facilities
/// size their maps from `capacity()`: hashbrown allocates the smallest
/// power-of-two bucket count whose 7/8 load ceiling covers that capacity,
/// with one `(K, V)` slot and one control byte per bucket.
fn hash_map_reservation_bytes<K, V>(map: &HashMap<K, V>) -> usize {
    let cap = map.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = (cap * 8).div_ceil(7).next_power_of_two();
    buckets * (std::mem::size_of::<(K, V)>() + 1)
}

// Paged shadow-space geometry: a slot is an 8-byte-aligned pointer
// location (`addr >> 3`). The low `SHADOW_PAGE_BITS` of the slot index a
// page; the next `SHADOW_DIR_BITS` index the directory. Together they
// cover the VM's entire 47-bit simulated address space
// (3 + 18 + 26 = 47); anything beyond spills to a cold overflow map so
// arbitrary u64 addresses remain correct.
const SHADOW_PAGE_BITS: u32 = 18;
const SHADOW_DIR_BITS: u32 = 26;
const SHADOW_PAGE_SLOTS: u64 = 1 << SHADOW_PAGE_BITS;
const SHADOW_DIRECT_SLOTS: u64 = 1 << (SHADOW_PAGE_BITS + SHADOW_DIR_BITS);

// The copy-on-first-touch shared organization splits the directory into
// 2^13 chunks of 2^13 u32 entries (32 KiB per chunk, 8192-entry root).
const DIR_CHUNK_BITS: u32 = 13;
const DIR_CHUNK_ENTRIES: usize = 1 << DIR_CHUNK_BITS;
const DIR_CHUNKS: usize = 1 << (SHADOW_DIR_BITS - DIR_CHUNK_BITS);

/// How a paged shadow map stores its directory (slot high bits → page
/// id). The two implementations trade standing reservation for one level
/// of indirection: [`FlatDirectory`] owns the whole 256 MiB span
/// privately (one indexed load per lookup); [`CowDirectory`] reads
/// through the process-wide [`SharedShadowReservation`] and materializes
/// private 32 KiB chunks only for directory spans it actually writes.
///
/// Directory choice is a *host-side* organization. The simulated cost
/// model (`sink.record(5, ..)`) and the observable metadata map are
/// identical for both, which is what lets the shared facility ride the
/// same differential suites as the private one, bit for bit.
pub trait ShadowDirectory {
    /// Facility name reported through [`MetadataFacility::name`].
    const NAME: &'static str;

    /// Whether [`MetadataFacility::reset`] hands page frames back to a
    /// process-wide pool (counted once, in
    /// [`shared_bytes`](Self::shared_bytes)) instead of parking them
    /// per worker. `false` keeps frames on the worker's own free list.
    const SHARES_FRAMES: bool = false;

    /// Reads the page id (+1) for directory entry `di`; 0 = no page.
    fn get(&self, di: usize) -> u32;

    /// Writes the page id (+1) for directory entry `di`.
    fn set(&mut self, di: usize, pid: u32);

    /// Host bytes this directory owns privately (paid per worker).
    fn private_bytes(&self) -> usize;

    /// Bytes of process-wide shared reservation this directory reads
    /// through to — paid once per process, not once per worker.
    fn shared_bytes(&self) -> usize {
        0
    }

    /// Offers a scrubbed (all-zero) frame to the shared pool; only
    /// meaningful when [`SHARES_FRAMES`](Self::SHARES_FRAMES) is true.
    fn stash_frame(&self, frame: Box<[u128]>) {
        drop(frame);
    }

    /// Takes a scrubbed frame back from the shared pool, if one is
    /// available.
    fn take_frame(&self) -> Option<Box<[u128]>> {
        None
    }
}

/// The private flat directory: this facility owns the entire
/// 2^26-entry span (256 MiB of zeroed virtual memory) itself — the
/// per-worker cost every fleet member paid before the shared
/// reservation existed.
#[derive(Debug)]
pub struct FlatDirectory {
    dir: Vec<u32>,
}

impl FlatDirectory {
    fn new() -> Self {
        FlatDirectory {
            dir: vec![0u32; 1 << SHADOW_DIR_BITS],
        }
    }
}

impl ShadowDirectory for FlatDirectory {
    const NAME: &'static str = "shadow-space";

    #[inline]
    fn get(&self, di: usize) -> u32 {
        self.dir[di]
    }

    #[inline]
    fn set(&mut self, di: usize, pid: u32) {
        self.dir[di] = pid;
    }

    fn private_bytes(&self) -> usize {
        self.dir.len() * std::mem::size_of::<u32>()
    }
}

/// The process-wide shared shadow reservation: one 256 MiB zeroed
/// directory that every [`SharedShadowPages`] worker reads through for
/// directory spans it has never written — the software analogue of the
/// kernel zero page backing the paper's `mmap`-reserved shadow region
/// (§5.1): reserve once per process, commit per toucher.
///
/// The prototype is written by *no one* (workers materialize private
/// copy-on-first-touch chunks before their first directory write), so
/// sharing it across a fleet is lock-free and race-free by construction;
/// the `Arc` only manages lifetime. A fleet therefore pays the directory
/// once, plus per-worker private bytes proportional to the address span
/// each worker actually touched.
#[derive(Debug)]
pub struct SharedShadowReservation {
    /// The zero prototype: one u32 per directory entry, never written.
    zero_dir: Box<[u32]>,
    /// Standing pool of scrubbed (all-zero) 4 MiB page frames, shared
    /// by every worker on this reservation: [`MetadataFacility::reset`]
    /// returns a worker's frames here and the next page commit —
    /// anyone's — reuses them without touching the host allocator.
    /// Bounded at [`Self::frame_pool_capacity_bytes`]; excess frames
    /// are released to the host, so a fleet's *standing* frame cost is
    /// the pool capacity once, not `workers × pages` forever. Touched
    /// only at commit/reset (the check hot path never takes the lock).
    frame_pool: Mutex<Vec<Box<[u128]>>>,
}

/// Frames the shared pool retains across resets (32 MiB of standing
/// frame reservation — enough to recycle a typical pool's churn
/// without growing with the worker count).
const FRAME_POOL_CAP: usize = 8;

impl SharedShadowReservation {
    /// Allocates a fresh reservation, for tests (or embedders) that want
    /// isolation from the process-wide one. The span is zeroed virtual
    /// memory; nothing is committed until readers fault pages in.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Self> {
        Arc::new(SharedShadowReservation {
            zero_dir: vec![0u32; 1 << SHADOW_DIR_BITS].into_boxed_slice(),
            frame_pool: Mutex::new(Vec::with_capacity(FRAME_POOL_CAP)),
        })
    }

    /// The process-wide reservation, allocated on first use and shared
    /// by every facility built through [`SharedShadowPages::new_shared`]
    /// thereafter.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<SharedShadowReservation>> = OnceLock::new();
        GLOBAL.get_or_init(Self::new).clone()
    }

    /// Bytes of the once-per-process reservation: the directory
    /// prototype plus the frame pool *at capacity*. The pool is counted
    /// at its bound, not its momentary occupancy, for the same reason
    /// the 256 MiB directory is counted at its span: `reservation`
    /// means address space this facility may hold, and a capacity
    /// figure keeps fleet accounting deterministic while frames move
    /// between workers and the pool.
    pub fn shared_bytes(&self) -> usize {
        self.zero_dir.len() * std::mem::size_of::<u32>() + Self::frame_pool_capacity_bytes()
    }

    /// Upper bound on host bytes the standing frame pool retains.
    pub fn frame_pool_capacity_bytes() -> usize {
        FRAME_POOL_CAP * (SHADOW_PAGE_SLOTS as usize) * std::mem::size_of::<u128>()
    }

    /// Host bytes one worker's copy-on-first-touch overlay owns
    /// privately with `chunks` directory chunks materialized: the fixed
    /// chunk root (one slot per 32 KiB span of the directory) plus
    /// 32 KiB per materialized chunk. This is the per-worker directory
    /// cost a shared facility pays on top of the once-per-process
    /// [`shared_bytes`](Self::shared_bytes).
    pub(crate) fn overlay_bytes(chunks: usize) -> usize {
        DIR_CHUNKS * std::mem::size_of::<Option<Box<[u32]>>>()
            + chunks * DIR_CHUNK_ENTRIES * std::mem::size_of::<u32>()
    }

    fn stash_frame(&self, frame: Box<[u128]>) {
        let mut pool = self
            .frame_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.len() < FRAME_POOL_CAP {
            pool.push(frame);
        }
    }

    fn take_frame(&self) -> Option<Box<[u128]>> {
        self.frame_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
    }
}

/// The copy-on-first-touch directory over the shared reservation: reads
/// fall through to the shared zero prototype until this worker's first
/// page commit in a 32 KiB span materializes a private chunk. The check
/// hot path stays lock-free (the overlay is worker-private and the
/// prototype read-only) and the warm path allocation-free: chunks
/// materialize on page commit — the moment the flat organization would
/// be allocating a 4 MiB page anyway — and, like the flat directory,
/// survive [`MetadataFacility::reset`].
#[derive(Debug)]
pub struct CowDirectory {
    shared: Arc<SharedShadowReservation>,
    /// Materialized private chunks; `DIR_CHUNKS` entries.
    root: Box<[Option<Box<[u32]>>]>,
}

impl CowDirectory {
    fn new(shared: Arc<SharedShadowReservation>) -> Self {
        CowDirectory {
            shared,
            root: vec![None; DIR_CHUNKS].into_boxed_slice(),
        }
    }
}

impl ShadowDirectory for CowDirectory {
    const NAME: &'static str = "shadow-space-shared";
    const SHARES_FRAMES: bool = true;

    #[inline]
    fn get(&self, di: usize) -> u32 {
        match &self.root[di >> DIR_CHUNK_BITS] {
            Some(chunk) => chunk[di & (DIR_CHUNK_ENTRIES - 1)],
            // Never-written span: read the shared zero prototype
            // (always "no page") instead of owning 256 MiB to say so.
            None => self.shared.zero_dir[di],
        }
    }

    fn set(&mut self, di: usize, pid: u32) {
        let slot = &mut self.root[di >> DIR_CHUNK_BITS];
        match slot {
            Some(chunk) => chunk[di & (DIR_CHUNK_ENTRIES - 1)] = pid,
            None => {
                // Writing "no page" into a never-written span changes
                // nothing; stay unmaterialized.
                if pid == 0 {
                    return;
                }
                let mut chunk = vec![0u32; DIR_CHUNK_ENTRIES].into_boxed_slice();
                chunk[di & (DIR_CHUNK_ENTRIES - 1)] = pid;
                *slot = Some(chunk);
            }
        }
    }

    fn private_bytes(&self) -> usize {
        SharedShadowReservation::overlay_bytes(self.root.iter().flatten().count())
    }

    fn shared_bytes(&self) -> usize {
        self.shared.shared_bytes()
    }

    fn stash_frame(&self, frame: Box<[u128]>) {
        self.shared.stash_frame(frame);
    }

    fn take_frame(&self) -> Option<Box<[u128]>> {
        self.shared.take_frame()
    }
}

/// The tag-less shadow-space organization (§5.1 "Shadow space"),
/// implemented as a real two-level paged direct map.
///
/// The directory is a flat array of page ids and each page a flat array
/// of packed `(base, bound)` entries; both are allocated zeroed
/// (`calloc` → anonymous mappings), so their spans stay *virtual* until
/// individual OS pages are touched — the same demand-paging trick the
/// paper plays by `mmap`-reserving half the address space for the
/// shadow region. A lookup is shift, mask, two indexed loads: O(1),
/// branch-light, no tags, no collisions. Because the directory holds
/// plain `u32` page ids (not boxes), dropping the facility frees a
/// handful of flat allocations instead of scanning 64M entries.
///
/// Entries are stored as `u128` words (base in the low half, bound in
/// the high half) so page allocation hits the zeroed-memory fast path;
/// the all-zero word is exactly [`Meta::NULL`].
///
/// ## Page reclamation
///
/// Every page tracks its own live-entry count. When
/// [`clear_range`](MetadataFacility::clear_range) covers a page end to
/// end — a large `free`, a frame teardown, a `memset` over a
/// pointer-bearing region — the page is **decommitted**: its id is
/// unmapped from the directory and parked on a free list, instead of
/// storing NULL 256 Ki times. Decommit scrubs the page's written
/// extent back to all-zero (a few cache lines for a typical request,
/// never a 4 MiB memset), so the next first-touch recommits it with
/// pointer work alone — no fill, no host allocation: a warm worker's
/// commit/decommit churn never touches the allocator.
/// [`reset`](MetadataFacility::reset) decommits every page the same
/// way but keeps the directory reservation mapped, zeroing only the
/// entries that were actually used — long-running servers neither leak
/// shadow pages nor pay the reservation again per request. A private
/// facility parks its scrubbed frames locally; a shared facility
/// returns them to the reservation's bounded frame pool so idle
/// workers hold nothing.
///
/// ## Directory backends
///
/// The directory is generic over [`ShadowDirectory`]:
/// `ShadowPages = PagedShadow<FlatDirectory>` owns the full 256 MiB span
/// per facility, while `SharedShadowPages = PagedShadow<CowDirectory>`
/// overlays the process-wide [`SharedShadowReservation`]. Page and
/// overflow handling — and the simulated cost model — are shared code,
/// so the two stay bit-identical by construction.
#[derive(Debug)]
pub struct PagedShadow<D: ShadowDirectory> {
    /// Page id + 1 per directory entry; 0 = no page yet.
    dir: D,
    /// Materialized pages, in first-touch order (index = page id - 1).
    pages: Vec<Page>,
    /// Ids of decommitted pages, reusable on the next first-touch.
    free_pages: Vec<u32>,
    /// Cold store for slots beyond the 47-bit simulated space.
    overflow: HashMap<u64, Meta>,
    live: usize,
}

/// The per-worker paged shadow: a private flat 256 MiB directory.
pub type ShadowPages = PagedShadow<FlatDirectory>;

/// The fleet paged shadow: a copy-on-first-touch overlay over the
/// process-wide [`SharedShadowReservation`].
pub type SharedShadowPages = PagedShadow<CowDirectory>;

/// One materialized shadow page plus its bookkeeping.
#[derive(Debug)]
struct Page {
    /// Packed `(base, bound)` entries. Invariant: all-zero outside the
    /// `[dirty_lo, dirty_hi)` extent, and decommitted (parked or
    /// pooled) frames are all-zero everywhere — recommit needs no fill.
    slots: Box<[u128]>,
    /// Live (non-NULL) entries on this page.
    live: u32,
    /// Directory index currently owning this page (stale once the page
    /// is decommitted; rewritten when the id is reused).
    dir_index: u32,
    /// Written-slot extent since the last scrub (`lo >= hi` = clean).
    /// Zeroing on decommit touches only this span, so a worker that
    /// writes a few hundred entries never pays a 4 MiB memset — the
    /// frames stay as cheap to recycle as freshly `calloc`ed ones.
    dirty_lo: u32,
    dirty_hi: u32,
}

impl Page {
    fn fresh(slots: Box<[u128]>, dir_index: u32) -> Self {
        Page {
            slots,
            live: 0,
            dir_index,
            dirty_lo: u32::MAX,
            dirty_hi: 0,
        }
    }

    #[inline]
    fn note_write(&mut self, idx: usize) {
        let idx = idx as u32;
        self.dirty_lo = self.dirty_lo.min(idx);
        self.dirty_hi = self.dirty_hi.max(idx + 1);
    }

    /// Zeroes the written extent, restoring the all-zero invariant.
    fn scrub(&mut self) {
        if self.dirty_lo < self.dirty_hi {
            self.slots[self.dirty_lo as usize..self.dirty_hi as usize].fill(0);
        }
        self.dirty_lo = u32::MAX;
        self.dirty_hi = 0;
        self.live = 0;
    }

    fn is_clean(&self) -> bool {
        self.dirty_lo >= self.dirty_hi && self.live == 0
    }
}

fn zeroed_page() -> Box<[u128]> {
    vec![0u128; SHADOW_PAGE_SLOTS as usize].into_boxed_slice()
}

#[inline]
fn pack(m: Meta) -> u128 {
    (m.base as u128) | ((m.bound as u128) << 64)
}

#[inline]
fn unpack(v: u128) -> Meta {
    Meta {
        base: v as u64,
        bound: (v >> 64) as u64,
    }
}

impl ShadowPages {
    /// Creates an empty paged shadow space over a private flat
    /// directory. The directory allocation is zeroed virtual memory;
    /// nothing is committed until first touch.
    pub fn new() -> Self {
        PagedShadow::with_directory(FlatDirectory::new())
    }
}

impl SharedShadowPages {
    /// Creates a worker facility over the process-wide shared
    /// reservation ([`SharedShadowReservation::global`]).
    pub fn new_shared() -> Self {
        Self::with_reservation(SharedShadowReservation::global())
    }

    /// Creates a worker facility over an explicit reservation — tests,
    /// or an embedder running several isolated fleets in one process.
    pub fn with_reservation(shared: Arc<SharedShadowReservation>) -> Self {
        PagedShadow::with_directory(CowDirectory::new(shared))
    }

    /// The reservation this worker reads through.
    pub fn reservation(&self) -> &Arc<SharedShadowReservation> {
        &self.dir.shared
    }
}

impl<D: ShadowDirectory> PagedShadow<D> {
    fn with_directory(dir: D) -> Self {
        PagedShadow {
            dir,
            pages: Vec::new(),
            free_pages: Vec::new(),
            overflow: HashMap::new(),
            live: 0,
        }
    }

    /// Number of committed pages (memory-overhead statistics); excludes
    /// decommitted pages parked on the free list.
    pub fn page_count(&self) -> usize {
        self.pages.len() - self.free_pages.len()
    }

    /// Pages decommitted and awaiting reuse (reclamation statistics).
    pub fn decommitted_pages(&self) -> usize {
        self.free_pages.len()
    }

    #[inline]
    fn table_addr(slot: u64) -> u64 {
        SHADOW_BASE.wrapping_add(slot.wrapping_mul(16))
    }

    /// Commits a page for directory entry `di`, reusing a parked frame
    /// when one is available. Returns the page id.
    ///
    /// Every frame source is already all-zero — parked frames and
    /// pooled shared frames were scrubbed when they left service, fresh
    /// frames come from the zeroed allocator — so commit is pointer
    /// work only: no fill, no memset, regardless of where the frame
    /// came from.
    fn commit_page(&mut self, di: usize) -> u32 {
        let pid = match self.free_pages.pop() {
            Some(pid) => {
                let page = &mut self.pages[(pid - 1) as usize];
                debug_assert!(page.is_clean());
                page.dir_index = di as u32;
                pid
            }
            None => {
                let slots = self.dir.take_frame().unwrap_or_else(zeroed_page);
                self.pages.push(Page::fresh(slots, di as u32));
                self.pages.len() as u32
            }
        };
        self.dir.set(di, pid);
        pid
    }

    /// Decommits the page owning directory entry `di`: its live entries
    /// leave the global count, its written extent is scrubbed back to
    /// all-zero, and its id is parked for reuse. The frame stays owned
    /// — and counted by
    /// [`reservation_bytes`](MetadataFacility::reservation_bytes) —
    /// while parked; decommit unmaps it from the directory, not from
    /// the host. Scrubbing here (the cold path) is what lets
    /// [`commit_page`](Self::commit_page) skip the fill on the warm
    /// path.
    fn decommit_page(&mut self, di: usize, pid: u32) {
        let page = &mut self.pages[(pid - 1) as usize];
        self.live -= page.live as usize;
        page.scrub();
        self.dir.set(di, 0);
        self.free_pages.push(pid);
    }
}

impl Default for ShadowPages {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: ShadowDirectory> MetadataFacility for PagedShadow<D> {
    fn name(&self) -> &'static str {
        D::NAME
    }

    // The check path's devirtualization only pays off if these bodies
    // can cross the crate boundary into the monomorphized machine loop.
    #[inline]
    fn load(&mut self, addr: u64, sink: &mut dyn AccessSink) -> Meta {
        let slot = addr >> 3;
        sink.record(5, Self::table_addr(slot));
        if slot < SHADOW_DIRECT_SLOTS {
            let pid = self.dir.get((slot >> SHADOW_PAGE_BITS) as usize);
            if pid == 0 {
                return Meta::NULL;
            }
            unpack(self.pages[(pid - 1) as usize].slots[(slot & (SHADOW_PAGE_SLOTS - 1)) as usize])
        } else {
            self.overflow.get(&slot).copied().unwrap_or(Meta::NULL)
        }
    }

    #[inline]
    fn store(&mut self, addr: u64, meta: Meta, sink: &mut dyn AccessSink) {
        let slot = addr >> 3;
        sink.record(5, Self::table_addr(slot));
        if slot < SHADOW_DIRECT_SLOTS {
            let di = (slot >> SHADOW_PAGE_BITS) as usize;
            let mut pid = self.dir.get(di);
            if pid == 0 {
                // Null stores into untouched regions need no page.
                if meta.is_null() {
                    return;
                }
                pid = self.commit_page(di);
            }
            let page = &mut self.pages[(pid - 1) as usize];
            let idx = (slot & (SHADOW_PAGE_SLOTS - 1)) as usize;
            let entry = &mut page.slots[idx];
            let was_null = *entry == 0;
            *entry = pack(meta);
            if !meta.is_null() {
                // Null stores write zero and can't widen the nonzero
                // extent, so only live stores advance the dirty span.
                page.note_write(idx);
            }
            match (was_null, meta.is_null()) {
                (true, false) => {
                    page.live += 1;
                    self.live += 1;
                }
                (false, true) => {
                    page.live -= 1;
                    self.live -= 1;
                }
                _ => {}
            }
        } else if meta.is_null() {
            if self.overflow.remove(&slot).is_some() {
                self.live -= 1;
            }
        } else if self.overflow.insert(slot, meta).is_none() {
            self.live += 1;
        }
    }

    /// Range clearing with whole-page reclamation: pages covered end to
    /// end by the range are decommitted in O(1) (after bulk-reporting
    /// the same cost and table addresses the per-slot path would), and
    /// partial pages fall back to per-slot NULL stores — so the
    /// observable metadata map, cost accounting, and cache traffic stay
    /// byte-identical to the HashMap oracle's default implementation.
    fn clear_range(&mut self, addr: u64, len: u64, sink: &mut dyn AccessSink) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        let mut s = addr >> 3;
        let end_slot = end.div_ceil(8);
        while s < end_slot {
            if s >= SHADOW_DIRECT_SLOTS {
                self.store(s << 3, Meta::NULL, sink);
                s += 1;
                continue;
            }
            let page_start = s & !(SHADOW_PAGE_SLOTS - 1);
            let page_end = page_start + SHADOW_PAGE_SLOTS;
            let seg_end = end_slot.min(page_end);
            if s == page_start && seg_end == page_end {
                // Whole page covered: report what the per-slot walk
                // would have, then drop the page in one motion.
                sink.add_cost(5 * SHADOW_PAGE_SLOTS);
                if sink.wants_addresses() {
                    for slot in s..seg_end {
                        sink.touch(Self::table_addr(slot));
                    }
                }
                let di = (s >> SHADOW_PAGE_BITS) as usize;
                let pid = self.dir.get(di);
                if pid != 0 {
                    self.decommit_page(di, pid);
                }
            } else {
                for slot in s..seg_end {
                    self.store(slot << 3, Meta::NULL, sink);
                }
            }
            s = seg_end;
        }
    }

    fn live_entries(&self) -> usize {
        self.live
    }

    /// Directory (shared + private spans) + page frames (committed
    /// *and* parked — a parked frame is still owned host memory) + the
    /// overflow map's actual bucket layout. With the flat directory
    /// this is dominated by the private 256 MiB span, which is why a
    /// per-worker facility dominates a fleet's footprint; the shared
    /// directory pins the same 256 MiB once per process instead (see
    /// [`shared_reservation_bytes`](MetadataFacility::shared_reservation_bytes)).
    fn reservation_bytes(&self) -> usize {
        let dir = self.dir.private_bytes() + self.dir.shared_bytes();
        let pages = self
            .pages
            .iter()
            .map(|p| p.slots.len() * std::mem::size_of::<u128>())
            .sum::<usize>();
        dir + pages + hash_map_reservation_bytes(&self.overflow)
    }

    fn shared_reservation_bytes(&self) -> usize {
        self.dir.shared_bytes()
    }

    /// Decommits every page, zeroing only the directory entries that
    /// were actually used — the directory reservation stays mapped for
    /// the next run (and materialized shared-directory chunks stay
    /// materialized). Every frame is scrubbed back to all-zero (only
    /// its written extent is touched) so recommit needs no fill.
    ///
    /// What happens to the scrubbed frames depends on the directory:
    /// a private facility *parks* them locally — a warm instance's
    /// reset → recommit churn must never touch the host allocator, so
    /// the frames stay owned (and counted by
    /// [`reservation_bytes`](MetadataFacility::reservation_bytes)) —
    /// while a shared facility (`D::SHARES_FRAMES`) returns them to
    /// the reservation's bounded frame pool, so an idle worker holds
    /// no frames of its own and an 8-worker fleet's standing
    /// reservation stays within a pool's width of a single worker's.
    fn reset(&mut self) {
        self.free_pages.clear();
        if D::SHARES_FRAMES {
            for mut page in self.pages.drain(..) {
                self.dir.set(page.dir_index as usize, 0);
                page.scrub();
                self.dir.stash_frame(page.slots);
            }
        } else {
            for (i, page) in self.pages.iter_mut().enumerate() {
                self.dir.set(page.dir_index as usize, 0);
                page.scrub();
                self.free_pages.push(i as u32 + 1);
            }
        }
        self.overflow.clear();
        self.live = 0;
    }
}

/// The previous HashMap-backed shadow-space *simulation*, kept as the
/// slow comparison point (§5.1 microbenchmark) and as an oracle for
/// differential tests: costs and simulated table addresses match
/// [`ShadowPages`] exactly; only the host data structure differs.
#[derive(Debug, Default)]
pub struct ShadowHashMapFacility {
    entries: HashMap<u64, Meta>,
}

impl ShadowHashMapFacility {
    /// Creates an empty shadow space.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetadataFacility for ShadowHashMapFacility {
    fn name(&self) -> &'static str {
        "shadow-hashmap"
    }

    #[inline]
    fn load(&mut self, addr: u64, sink: &mut dyn AccessSink) -> Meta {
        let slot = addr >> 3;
        sink.record(5, ShadowPages::table_addr(slot));
        self.entries.get(&slot).copied().unwrap_or(Meta::NULL)
    }

    #[inline]
    fn store(&mut self, addr: u64, meta: Meta, sink: &mut dyn AccessSink) {
        let slot = addr >> 3;
        sink.record(5, ShadowPages::table_addr(slot));
        if meta.is_null() {
            self.entries.remove(&slot);
        } else {
            self.entries.insert(slot, meta);
        }
    }

    fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// The HashMap's actual bucket layout (sized from `capacity`); no
    /// standing reservation beyond the table.
    fn reservation_bytes(&self) -> usize {
        hash_map_reservation_bytes(&self.entries)
    }

    fn reset(&mut self) {
        self.entries.clear();
    }
}

/// The open-hashing organization (§5.1 "Hash table").
///
/// Entries are 24-byte (tag, base, bound) triples; the hash is the
/// double-word address modulo a power-of-two table size (shift + mask).
/// Collisions chain; each extra probe costs 3 instructions and touches
/// another table line, which is how this organization loses to the shadow
/// space on pointer-dense workloads.
///
/// ## Host layout: O(touched), not O(table)
///
/// The simulated table has `1 << log2_buckets` buckets, but a run only
/// touches a few of them, so the host layout pays per touched bucket:
///
/// * `heads` is a directory of head chunks, each 1024 `u32`s (4 KiB)
///   holding the bucket's chain id + 1, 0 for "empty". A chunk is
///   allocated on the first chain assignment in its span and kept
///   across resets, so a warm run allocates nothing and a 2^20-bucket
///   table commits a few 4 KiB chunks instead of 4 MiB of heads. (A
///   flat zeroed `vec![0; 1 << 20]` is not lazy in practice: once glibc's
///   dynamic mmap threshold has risen past 4 MiB the span comes from
///   recycled heap memory, which calloc must memset on every
///   instantiate.)
/// * `chains` is a slab of chain `Vec`s. A bucket's first live store
///   assigns it the next slab entry; chain order under `push` and
///   `swap_remove` is the chain order of a per-bucket `Vec`, so probe
///   depths — and with them the cost model and simulated addresses —
///   do not depend on the host layout.
/// * `owners` maps each assigned chain id back to its bucket, so
///   [`reset`](MetadataFacility::reset) clears only the chains this run
///   assigned and zeroes only their heads. The cleared chains keep their
///   capacity and are handed out again in the next run: a warm instance
///   replaying the same program reuses the same chains and never asks
///   the host allocator for anything.
#[derive(Debug)]
pub struct HashTableFacility {
    /// Head chunks by `bucket >> HEAD_CHUNK_BITS`, `None` until a chain
    /// is first assigned in the span. Within a chunk: chain id + 1 per
    /// bucket; 0 = no chain assigned since the last reset.
    heads: Vec<Option<Box<[u32; HEAD_CHUNK]>>>,
    /// Chain slab of `(slot-tag, meta)` entries; ids below
    /// `owners.len()` are assigned, the rest are empty spares kept for
    /// reuse.
    chains: Vec<Vec<(u64, Meta)>>,
    /// Bucket owning each assigned chain (index = chain id).
    owners: Vec<u32>,
    mask: u64,
    live: usize,
    /// Total probes beyond the first (collision statistics).
    pub extra_probes: u64,
}

/// log2 of the bucket heads per lazily committed head chunk.
const HEAD_CHUNK_BITS: u32 = 10;
/// Bucket heads per head chunk: 1024 `u32`s, 4 KiB.
const HEAD_CHUNK: usize = 1 << HEAD_CHUNK_BITS;

impl HashTableFacility {
    /// Creates a table with `1 << log2_buckets` buckets (default 20 —
    /// "sizing the table large enough to keep average utilization low").
    /// Only the head directory is allocated; a head chunk is committed
    /// when a bucket in its span is first assigned a chain.
    pub fn new(log2_buckets: u32) -> Self {
        assert!(
            log2_buckets < 32,
            "bucket indices and chain ids are u32: 2^{log2_buckets} buckets is too many"
        );
        let n = 1usize << log2_buckets;
        HashTableFacility {
            heads: vec![None; n.div_ceil(HEAD_CHUNK)],
            chains: Vec::new(),
            owners: Vec::new(),
            mask: n as u64 - 1,
            live: 0,
            extra_probes: 0,
        }
    }

    /// Bytes of bucket heads a table of `buckets` buckets holds with
    /// `chunks` head chunks committed: the directory plus the chunks.
    pub(crate) fn head_bytes(buckets: usize, chunks: usize) -> usize {
        buckets.div_ceil(HEAD_CHUNK) * std::mem::size_of::<Option<Box<[u32; HEAD_CHUNK]>>>()
            + chunks * HEAD_CHUNK * std::mem::size_of::<u32>()
    }

    /// Head chunks committed so far (kept across resets).
    fn head_chunks(&self) -> usize {
        self.heads.iter().flatten().count()
    }

    /// Chain id + 1 of bucket `b`; 0 when it has none assigned.
    #[inline]
    fn head(&self, b: u64) -> u32 {
        match &self.heads[(b >> HEAD_CHUNK_BITS) as usize] {
            Some(chunk) => chunk[b as usize & (HEAD_CHUNK - 1)],
            None => 0,
        }
    }

    fn bucket_addr(&self, b: u64, depth: u64) -> u64 {
        HASHTABLE_BASE + b * 24 + depth * (self.mask + 1) * 24
    }

    /// The chain of bucket `b`; empty when the bucket has none assigned.
    #[inline]
    fn chain(&self, b: u64) -> &[(u64, Meta)] {
        match self.head(b) {
            0 => &[],
            id => &self.chains[(id - 1) as usize],
        }
    }

    /// Assigns bucket `b` the next chain of the slab (reusing a spare
    /// chain's capacity when one is left from an earlier run, and
    /// committing the bucket's head chunk if this is the first chain in
    /// its span) and returns its id.
    fn assign_chain(&mut self, b: u64) -> usize {
        let id = self.owners.len();
        if id == self.chains.len() {
            self.chains.push(Vec::new());
        }
        self.owners.push(b as u32);
        let chunk = self.heads[(b >> HEAD_CHUNK_BITS) as usize].get_or_insert_with(|| {
            vec![0; HEAD_CHUNK]
                .into_boxed_slice()
                .try_into()
                .expect("a head chunk is HEAD_CHUNK heads")
        });
        chunk[b as usize & (HEAD_CHUNK - 1)] = id as u32 + 1;
        id
    }
}

impl Default for HashTableFacility {
    fn default() -> Self {
        Self::new(20)
    }
}

impl MetadataFacility for HashTableFacility {
    fn name(&self) -> &'static str {
        "hash-table"
    }

    fn load(&mut self, addr: u64, sink: &mut dyn AccessSink) -> Meta {
        let slot = addr >> 3;
        let b = slot & self.mask;
        sink.record(9, self.bucket_addr(b, 0));
        let chain = self.chain(b);
        for (depth, (tag, meta)) in chain.iter().enumerate() {
            if *tag == slot {
                let meta = *meta;
                if depth > 0 {
                    sink.add_cost(3 * depth as u64);
                    self.extra_probes += depth as u64;
                    let addr = self.bucket_addr(b, depth as u64);
                    sink.touch(addr);
                }
                return meta;
            }
        }
        let extra = chain.len().saturating_sub(1) as u64;
        sink.add_cost(3 * extra);
        self.extra_probes += extra;
        Meta::NULL
    }

    fn store(&mut self, addr: u64, meta: Meta, sink: &mut dyn AccessSink) {
        let slot = addr >> 3;
        let b = slot & self.mask;
        sink.record(9, self.bucket_addr(b, 0));
        let id = match self.head(b) {
            // No chain: a NULL store has nothing to delete and pays
            // nothing beyond the first probe.
            0 if meta.is_null() => return,
            0 => self.assign_chain(b),
            id => (id - 1) as usize,
        };
        let chain = &mut self.chains[id];
        if let Some(pos) = chain.iter().position(|(tag, _)| *tag == slot) {
            if pos > 0 {
                sink.add_cost(3 * pos as u64);
                self.extra_probes += pos as u64;
            }
            if meta.is_null() {
                chain.swap_remove(pos);
                self.live -= 1;
            } else {
                chain[pos].1 = meta;
            }
        } else if !meta.is_null() {
            let extra = chain.len() as u64;
            sink.add_cost(3 * extra);
            self.extra_probes += extra;
            chain.push((slot, meta));
            self.live += 1;
        }
    }

    fn live_entries(&self) -> usize {
        self.live
    }

    /// The head directory and every committed head chunk, plus the
    /// chain slab — its headers, every chain's capacity and the owner
    /// list. All of it is kept across resets.
    fn reservation_bytes(&self) -> usize {
        Self::head_bytes(self.mask as usize + 1, self.head_chunks())
            + self.chains.capacity() * std::mem::size_of::<Vec<(u64, Meta)>>()
            + self
                .chains
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<(u64, Meta)>())
                .sum::<usize>()
            + self.owners.capacity() * std::mem::size_of::<u32>()
    }

    /// Empties only the chains this run assigned and zeroes only their
    /// bucket heads — O(touched buckets), not O(table). The chains keep
    /// their capacity as slab spares for the next run, and the head
    /// chunks stay committed.
    fn reset(&mut self) {
        for (id, &b) in self.owners.iter().enumerate() {
            self.chains[id].clear();
            let chunk = self.heads[(b >> HEAD_CHUNK_BITS) as usize]
                .as_mut()
                .expect("an assigned bucket's head chunk is committed");
            chunk[b as usize & (HEAD_CHUNK - 1)] = 0;
        }
        self.owners.clear();
        self.live = 0;
        self.extra_probes = 0;
    }
}

// Fleet workers hold a facility each; the shared reservation crosses
// threads by design. Compile-time proof both are Send + Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedShadowReservation>();
    assert_send_sync::<SharedShadowPages>();
    assert_send_sync::<ShadowPages>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(fac: &mut dyn MetadataFacility) {
        let mut sink = ScratchSink::new();
        let m = Meta {
            base: 0x1000,
            bound: 0x1040,
        };
        assert_eq!(fac.load(0x2000, &mut sink), Meta::NULL);
        fac.store(0x2000, m, &mut sink);
        assert_eq!(fac.load(0x2000, &mut sink), m);
        assert_eq!(
            fac.load(0x2008, &mut sink),
            Meta::NULL,
            "adjacent slot distinct"
        );
        fac.store(0x2000, Meta::NULL, &mut sink);
        assert_eq!(fac.load(0x2000, &mut sink), Meta::NULL);
        assert_eq!(fac.live_entries(), 0);
    }

    #[test]
    fn shadow_paged_roundtrip() {
        roundtrip(&mut ShadowPages::new());
    }

    #[test]
    fn shadow_shared_roundtrip() {
        // Over a fresh reservation and over the process-wide one.
        roundtrip(&mut SharedShadowPages::with_reservation(
            SharedShadowReservation::new(),
        ));
        roundtrip(&mut SharedShadowPages::new_shared());
    }

    #[test]
    fn shadow_hashmap_roundtrip() {
        roundtrip(&mut ShadowHashMapFacility::new());
    }

    #[test]
    fn hash_roundtrip() {
        roundtrip(&mut HashTableFacility::new(10));
    }

    #[test]
    fn shadow_costs_five() {
        for fac in [
            &mut ShadowPages::new() as &mut dyn MetadataFacility,
            &mut SharedShadowPages::new_shared(),
            &mut ShadowHashMapFacility::new(),
        ] {
            let mut sink = ScratchSink::new();
            fac.load(0x4000, &mut sink);
            assert_eq!(sink.cost, 5, "paper: shadow lookup ≈ 5 instructions");
            assert_eq!(sink.touched.len(), 1);
        }
    }

    #[test]
    fn hash_costs_nine_no_collision() {
        let mut f = HashTableFacility::new(16);
        let mut sink = ScratchSink::new();
        f.load(0x4000, &mut sink);
        assert_eq!(sink.cost, 9, "paper: hash lookup ≈ 9 instructions");
    }

    #[test]
    fn hash_collisions_cost_extra() {
        // 4-bucket table: slots 0 and 16 collide (slot = addr>>3).
        let mut f = HashTableFacility::new(2);
        let mut sink = ScratchSink::new();
        let m = Meta { base: 1, bound: 2 };
        f.store(0x0, m, &mut sink); // slot 0, bucket 0
        f.store(0x80, m, &mut sink); // slot 16, bucket 0 → chained
        sink.reset();
        f.load(0x80, &mut sink);
        assert_eq!(
            sink.cost,
            9 + 3,
            "second chain position costs one extra probe"
        );
        assert!(f.extra_probes > 0);
    }

    #[test]
    fn noop_sink_records_nothing() {
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        f.store(0x2000, Meta { base: 1, bound: 2 }, &mut sink);
        assert_eq!(f.load(0x2000, &mut sink), Meta { base: 1, bound: 2 });
        assert!(!AccessSink::wants_addresses(&sink));
    }

    #[test]
    fn facilities_agree_randomized() {
        // Property: all four organizations implement the same map. The
        // HashMap shadow is the oracle; the paged shadows (private and
        // shared-reservation) and the (tiny, collision-heavy) hash table
        // must agree with it after a churn of overwrites and deletions.
        let mut paged = ShadowPages::new();
        let mut shared = SharedShadowPages::new_shared();
        let mut oracle = ShadowHashMapFacility::new();
        let mut ht = HashTableFacility::new(6); // tiny → lots of collisions
        let mut sink = ScratchSink::new();
        let mut state = 0x12345u64;
        let mut addrs = Vec::new();
        for i in 0..3000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (state % 4096) & !7;
            // A third of the stores are deletions (NULL metadata).
            let meta = if i % 3 == 0 {
                Meta::NULL
            } else {
                Meta {
                    base: i * 16,
                    bound: i * 16 + 64,
                }
            };
            paged.store(addr, meta, &mut sink);
            shared.store(addr, meta, &mut sink);
            oracle.store(addr, meta, &mut sink);
            ht.store(addr, meta, &mut sink);
            addrs.push(addr);
        }
        for addr in addrs {
            let expected = oracle.load(addr, &mut sink);
            assert_eq!(
                paged.load(addr, &mut sink),
                expected,
                "paged diverged at {addr:#x}"
            );
            assert_eq!(
                shared.load(addr, &mut sink),
                expected,
                "shared diverged at {addr:#x}"
            );
            assert_eq!(
                ht.load(addr, &mut sink),
                expected,
                "hash diverged at {addr:#x}"
            );
        }
        assert_eq!(paged.live_entries(), oracle.live_entries());
        assert_eq!(shared.live_entries(), oracle.live_entries());
        assert_eq!(ht.live_entries(), oracle.live_entries());
    }

    /// One seeded churn over `slots` pointer slots of a hash table —
    /// stores (a third of them NULL deletes, many overwriting live
    /// slots) with every fourth op a load — logging each op's cost,
    /// touched table addresses and result.
    fn hash_churn(ht: &mut HashTableFacility, seed: u64, slots: u64) -> Vec<(u64, Vec<u64>, Meta)> {
        let mut state = seed;
        (0..1500u64)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = ((state >> 33) % slots) * 8;
                let mut sink = ScratchSink::new();
                let result = if i % 4 == 3 {
                    ht.load(addr, &mut sink)
                } else {
                    let meta = if i % 3 == 0 {
                        Meta::NULL
                    } else {
                        Meta {
                            base: seed ^ i,
                            bound: (seed ^ i) + 64,
                        }
                    };
                    ht.store(addr, meta, &mut sink);
                    meta
                };
                (sink.cost, sink.touched, result)
            })
            .collect()
    }

    #[test]
    fn hash_reset_matches_a_fresh_table() {
        // Reset reuses the chain slab, so the same churn after a reset
        // must cost, touch and return exactly what it does on a table
        // that never ran anything — on collision-heavy tables, where
        // chain order (push / swap_remove) decides every probe depth.
        // The first churn covers either a few buckets (so the second
        // one assigns reused chains to buckets the first never touched)
        // or all of them.
        for log2 in 2..=6 {
            for first_slots in [3, 256] {
                let mut reused = HashTableFacility::new(log2);
                hash_churn(&mut reused, 0xA11CE, first_slots);
                reused.reset();
                assert_eq!(reused.live_entries(), 0);
                assert_eq!(reused.extra_probes, 0);
                let after_reset = hash_churn(&mut reused, 0xB0B, 256);
                let mut fresh = HashTableFacility::new(log2);
                let from_fresh = hash_churn(&mut fresh, 0xB0B, 256);
                assert!(
                    after_reset == from_fresh,
                    "2^{log2} buckets, first churn over {first_slots} slots: \
                     churn after reset diverged from a fresh table"
                );
                assert!(fresh.extra_probes > 0, "2^{log2} buckets: no collisions");
                assert_eq!(reused.extra_probes, fresh.extra_probes);
                assert_eq!(reused.live_entries(), fresh.live_entries());
            }
        }
    }

    #[test]
    fn hash_reset_reservation_settles() {
        // The chain slab is reused, not regrown: once two alternating
        // churns have both run, every further round returns reset to the
        // same idle reservation.
        let mut ht = HashTableFacility::new(4);
        let idle: Vec<usize> = (0..5)
            .map(|_| {
                for (seed, slots) in [(0xA11CE, 3), (0xB0B, 256)] {
                    hash_churn(&mut ht, seed, slots);
                    ht.reset();
                    assert_eq!(ht.live_entries(), 0);
                }
                ht.reservation_bytes()
            })
            .collect();
        assert!(idle.windows(2).all(|w| w[0] == w[1]), "{idle:?}");
        assert_eq!(
            HashTableFacility::new(20).reservation_bytes(),
            HashTableFacility::head_bytes(1 << 20, 0),
            "an untouched table reserves exactly its head directory"
        );
    }

    #[test]
    fn hash_heads_commit_per_touched_chunk() {
        let log2 = 20;
        let mut ht = HashTableFacility::new(log2);
        assert_eq!(ht.head_chunks(), 0, "a fresh table holds no chunk");
        let meta = Meta {
            base: 0x1000,
            bound: 0x1040,
        };
        // Buckets in k = 3 distinct chunks (two buckets share chunk 0,
        // one sits in chunk 5, one in the last chunk); bucket b is slot
        // b, i.e. address 8 * b.
        let last = (1u64 << log2) - 1;
        let buckets = [0, 7, 5 * HEAD_CHUNK as u64 + 3, last];
        let mut idle = Vec::new();
        for _ in 0..3 {
            for b in buckets {
                ht.store(b * 8, meta, &mut NoopSink);
            }
            assert_eq!(ht.head_chunks(), 3, "k touched chunks commit exactly k");
            ht.reset();
            assert_eq!(ht.head_chunks(), 3, "reset keeps the committed chunks");
            assert_eq!(ht.live_entries(), 0);
            idle.push(ht.reservation_bytes());
        }
        assert!(idle.windows(2).all(|w| w[0] == w[1]), "{idle:?}");
        assert!(idle[0] >= HashTableFacility::head_bytes(1 << log2, 3));
        // A NULL store into an untouched chunk commits nothing.
        ht.store(9 * HEAD_CHUNK as u64 * 8, Meta::NULL, &mut NoopSink);
        assert_eq!(ht.head_chunks(), 3);
    }

    #[test]
    fn sparse_addresses_hit_distinct_pages() {
        // Widely separated addresses — the VM's global/heap/stack regions,
        // page-boundary straddles, and beyond-47-bit overflow — must land
        // in distinct directory entries without aliasing.
        let mut f = ShadowPages::new();
        let mut sink = ScratchSink::new();
        let page_span = 8 << SHADOW_PAGE_BITS; // addresses covered per page
        let addrs: Vec<u64> = vec![
            0x0000_0000_0001_0000, // GLOBAL_BASE
            0x0000_2000_0000_0000, // HEAP_BASE
            0x0000_7F00_0000_0000, // STACK_BASE
            0x0000_4000_0000_0000, // FN_BASE
            page_span - 8,         // last slot of page 0
            page_span,             // first slot of page 1
            37 * page_span + 1024, // interior of a far page
            (1 << 47) - 8,         // last directly-mapped slot
            1 << 47,               // first overflow slot
            !7u64,                 // extreme overflow (highest aligned slot)
        ];
        for (i, &a) in addrs.iter().enumerate() {
            let meta = Meta {
                base: i as u64 + 1,
                bound: i as u64 + 100,
            };
            f.store(a, meta, &mut sink);
        }
        for (i, &a) in addrs.iter().enumerate() {
            let expected = Meta {
                base: i as u64 + 1,
                bound: i as u64 + 100,
            };
            assert_eq!(f.load(a, &mut sink), expected, "aliased at {a:#x}");
        }
        assert_eq!(f.live_entries(), addrs.len());
        // Adjacent-but-cross-page slots must not have merged.
        assert!(
            f.page_count() >= 6,
            "expected many distinct pages, got {}",
            f.page_count()
        );
        // Clearing restores emptiness (exercises overflow removal too).
        for &a in &addrs {
            f.store(a, Meta::NULL, &mut sink);
        }
        assert_eq!(f.live_entries(), 0);
    }

    #[test]
    fn null_stores_do_not_materialize_pages() {
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        f.store(0x5000, Meta::NULL, &mut sink);
        f.clear_range(0x9000, 256, &mut sink);
        assert_eq!(f.page_count(), 0, "null stores must not commit pages");
        assert_eq!(f.live_entries(), 0);
    }

    #[test]
    fn clear_range_wipes_slots() {
        let mut f = ShadowPages::new();
        let mut sink = ScratchSink::new();
        for i in 0..8 {
            f.store(0x3000 + i * 8, Meta { base: 1, bound: 2 }, &mut sink);
        }
        f.clear_range(0x3000, 32, &mut sink);
        assert_eq!(f.live_entries(), 4, "only the first 4 slots cleared");
    }

    #[test]
    fn copy_range_moves_metadata() {
        let mut f = ShadowPages::new();
        let mut sink = ScratchSink::new();
        let m = Meta {
            base: 0x10,
            bound: 0x20,
        };
        f.store(0x5000, m, &mut sink);
        f.store(
            0x5008,
            Meta {
                base: 0x30,
                bound: 0x40,
            },
            &mut sink,
        );
        f.copy_range(0x6000, 0x5000, 16, &mut sink);
        assert_eq!(f.load(0x6000, &mut sink), m);
        assert_eq!(f.load(0x6008, &mut sink).base, 0x30);
    }

    #[test]
    fn copy_range_unaligned_len_copies_each_slot_once() {
        // Regression for the old convoluted slot loop: a 12-byte memcpy
        // must copy the slots at offsets 0 and 8 exactly once each (two
        // loads + two stores = 4 shadow accesses, 20 cost units) and must
        // not touch the slot at offset 16.
        for fac in [
            &mut ShadowPages::new() as &mut dyn MetadataFacility,
            &mut ShadowHashMapFacility::new(),
        ] {
            let mut sink = ScratchSink::new();
            fac.store(0x5000, Meta { base: 1, bound: 2 }, &mut sink);
            fac.store(0x5008, Meta { base: 3, bound: 4 }, &mut sink);
            fac.store(0x5010, Meta { base: 5, bound: 6 }, &mut sink);
            sink.reset();
            fac.copy_range(0x6000, 0x5000, 12, &mut sink);
            assert_eq!(
                sink.cost,
                4 * 5,
                "2 loads + 2 stores at 5 each: {}",
                sink.cost
            );
            assert_eq!(sink.touched.len(), 4);
            assert_eq!(fac.load(0x6000, &mut sink), Meta { base: 1, bound: 2 });
            assert_eq!(fac.load(0x6008, &mut sink), Meta { base: 3, bound: 4 });
            assert_eq!(
                fac.load(0x6010, &mut sink),
                Meta::NULL,
                "slot past len untouched"
            );
        }
    }

    /// Bytes of simulated address space covered by one shadow page.
    const PAGE_SPAN: u64 = 8 << SHADOW_PAGE_BITS;

    /// Runs the same mutation script against the paged shadows (private
    /// flat directory and shared-reservation overlay) and the HashMap
    /// oracle, then asserts all agree on every probed address and on
    /// the live-entry count.
    fn differential(
        script: impl Fn(&mut dyn MetadataFacility, &mut dyn AccessSink),
        probes: &[u64],
    ) {
        let mut paged = ShadowPages::new();
        let mut shared = SharedShadowPages::new_shared();
        let mut oracle = ShadowHashMapFacility::new();
        let mut sink = NoopSink;
        script(&mut paged, &mut sink);
        script(&mut shared, &mut sink);
        script(&mut oracle, &mut sink);
        for &a in probes {
            let expected = oracle.load(a, &mut sink);
            assert_eq!(
                paged.load(a, &mut sink),
                expected,
                "paged diverged from oracle at {a:#x}"
            );
            assert_eq!(
                shared.load(a, &mut sink),
                expected,
                "shared diverged from oracle at {a:#x}"
            );
        }
        assert_eq!(paged.live_entries(), oracle.live_entries());
        assert_eq!(shared.live_entries(), oracle.live_entries());
    }

    #[test]
    fn clear_range_across_directory_entries() {
        // A span straddling the page-0/page-1 boundary clears slots in
        // *two* directory entries; neighbours on either side survive.
        let lo = PAGE_SPAN - 32; // last 4 slots of page 0
        let probes: Vec<u64> = (0..12).map(|i| lo - 16 + i * 8).collect();
        differential(
            |f, sink| {
                for i in 0..12 {
                    f.store(lo - 16 + i * 8, Meta { base: 1, bound: 2 }, sink);
                }
                f.clear_range(lo, 64, sink); // 4 slots each side of the boundary
            },
            &probes,
        );
        // Direct structural claim: both pages stayed materialized and
        // exactly the 4 surviving neighbours remain.
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        for i in 0..12 {
            f.store(lo - 16 + i * 8, Meta { base: 1, bound: 2 }, &mut sink);
        }
        assert_eq!(f.page_count(), 2);
        f.clear_range(lo, 64, &mut sink);
        assert_eq!(f.live_entries(), 4);
        assert_eq!(f.load(lo - 16, &mut sink), Meta { base: 1, bound: 2 });
        assert_eq!(f.load(lo + 64, &mut sink), Meta { base: 1, bound: 2 });
    }

    #[test]
    fn copy_range_across_directory_entries() {
        // Source sits at the end of page 0, destination at the start of
        // page 37: the copy reads and writes across directory entries.
        let src = PAGE_SPAN - 24;
        let dst = 37 * PAGE_SPAN;
        let probes: Vec<u64> = (0..6).flat_map(|i| [src + i * 8, dst + i * 8]).collect();
        differential(
            |f, sink| {
                for i in 0..6u64 {
                    f.store(
                        src + i * 8,
                        Meta {
                            base: 10 + i,
                            bound: 100 + i,
                        },
                        sink,
                    );
                }
                f.copy_range(dst, src, 48, sink);
            },
            &probes,
        );
    }

    #[test]
    fn whole_page_clear_empties_exactly_one_page() {
        // Populate all of page 1 plus one sentinel slot on each
        // neighbouring page, clear exactly page 1, and check the paged
        // map against the oracle on the boundary slots.
        let page1 = PAGE_SPAN;
        let stride = 512; // sample the page rather than all 256Ki slots
        differential(
            |f, sink| {
                f.store(page1 - 8, Meta { base: 7, bound: 8 }, sink);
                f.store(2 * PAGE_SPAN, Meta { base: 9, bound: 10 }, sink);
                let mut a = page1;
                while a < 2 * PAGE_SPAN {
                    f.store(
                        a,
                        Meta {
                            base: a,
                            bound: a + 8,
                        },
                        sink,
                    );
                    a += stride;
                }
                f.clear_range(page1, PAGE_SPAN, sink);
            },
            &[
                page1 - 8,
                page1,
                page1 + stride,
                2 * PAGE_SPAN - stride,
                2 * PAGE_SPAN,
            ],
        );
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        let mut a = page1;
        while a < 2 * PAGE_SPAN {
            f.store(a, Meta { base: 1, bound: 2 }, &mut sink);
            a += stride;
        }
        f.store(page1 - 8, Meta { base: 7, bound: 8 }, &mut sink);
        f.clear_range(page1, PAGE_SPAN, &mut sink);
        assert_eq!(f.live_entries(), 1, "only the page-0 sentinel survives");
    }

    #[test]
    fn zero_length_ops_touch_nothing() {
        // Aligned and unaligned zero-length clears and copies are no-ops
        // on both organizations — including the rounded-down slot of an
        // unaligned address.
        let probes = [0x5000u64, 0x5008, PAGE_SPAN - 8, PAGE_SPAN];
        differential(
            |f, sink| {
                for &a in &probes {
                    f.store(a, Meta { base: 3, bound: 4 }, sink);
                }
                f.clear_range(0x5000, 0, sink);
                f.clear_range(0x5004, 0, sink); // unaligned
                f.clear_range(PAGE_SPAN - 1, 0, sink); // unaligned at a boundary
                f.copy_range(0x6000, 0x5000, 0, sink);
            },
            &probes,
        );
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        f.store(0x5000, Meta { base: 3, bound: 4 }, &mut sink);
        f.clear_range(0x5004, 0, &mut sink);
        assert_eq!(
            f.load(0x5000, &mut sink),
            Meta { base: 3, bound: 4 },
            "unaligned zero-length clear must not wipe the containing slot"
        );
    }

    #[test]
    fn whole_page_clear_decommits_and_reuses_page_ids() {
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        // Populate pages 1 and 2 plus a sentinel on page 0.
        f.store(8, Meta { base: 1, bound: 2 }, &mut sink);
        for p in 1..3u64 {
            let mut a = p * PAGE_SPAN;
            while a < (p + 1) * PAGE_SPAN {
                f.store(
                    a,
                    Meta {
                        base: a,
                        bound: a + 8,
                    },
                    &mut sink,
                );
                a += 1024;
            }
        }
        assert_eq!(f.page_count(), 3);
        assert_eq!(f.decommitted_pages(), 0);
        let live_before = f.live_entries();

        // Clearing page 1 end to end decommits it in one motion.
        f.clear_range(PAGE_SPAN, PAGE_SPAN, &mut sink);
        assert_eq!(f.page_count(), 2, "page 1 must be decommitted");
        assert_eq!(f.decommitted_pages(), 1);
        assert_eq!(
            f.live_entries(),
            live_before - (PAGE_SPAN / 1024) as usize,
            "exactly page 1's entries left the live count"
        );
        assert_eq!(f.load(PAGE_SPAN, &mut sink), Meta::NULL);
        assert_eq!(f.load(PAGE_SPAN + 1024, &mut sink), Meta::NULL);
        assert_eq!(f.load(8, &mut sink), Meta { base: 1, bound: 2 });

        // The next first-touch — anywhere — reuses the parked page id
        // instead of growing the page vector.
        f.store(
            37 * PAGE_SPAN,
            Meta {
                base: 0x10,
                bound: 0x20,
            },
            &mut sink,
        );
        assert_eq!(f.decommitted_pages(), 0, "parked id was reused");
        assert_eq!(f.page_count(), 3);
        assert_eq!(
            f.load(37 * PAGE_SPAN, &mut sink),
            Meta {
                base: 0x10,
                bound: 0x20
            }
        );
        assert_eq!(
            f.load(37 * PAGE_SPAN + 8, &mut sink),
            Meta::NULL,
            "recommitted page starts zeroed"
        );
    }

    #[test]
    fn page_reclamation_differential_random_churn() {
        // Pseudo-random stores interleaved with clears — partial spans,
        // page-straddling spans, and multi-whole-page spans (which the
        // paged side serves by decommit) — must leave both organizations
        // with identical maps and live counts.
        let addr_of = |state: u64| (state % (5 * PAGE_SPAN)) & !7;
        let probes: Vec<u64> = {
            let mut v: Vec<u64> = (0..5 * PAGE_SPAN / 8).step_by(997).map(|s| s * 8).collect();
            v.extend([
                0,
                PAGE_SPAN - 8,
                PAGE_SPAN,
                4 * PAGE_SPAN,
                5 * PAGE_SPAN - 8,
            ]);
            v
        };
        differential(
            |f, sink| {
                let mut state = 0xfeed_beefu64;
                for i in 0..1500u64 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let addr = addr_of(state);
                    if i % 149 == 0 {
                        // Clear a whole page (the decommit path). Rare,
                        // because the oracle pays a per-slot walk.
                        f.clear_range((addr / PAGE_SPAN) * PAGE_SPAN, PAGE_SPAN, sink);
                    } else if i % 599 == 1 {
                        // Two whole pages plus a partial tail.
                        f.clear_range((addr / PAGE_SPAN) * PAGE_SPAN, 2 * PAGE_SPAN + 72, sink);
                    } else if i % 13 == 5 {
                        // A span straddling up to two pages.
                        f.clear_range(addr, (state >> 33) % 512 + 1, sink);
                    } else {
                        f.store(
                            addr,
                            Meta {
                                base: i + 1,
                                bound: i + 101,
                            },
                            sink,
                        );
                    }
                }
            },
            &probes,
        );
    }

    #[test]
    fn whole_page_clear_cost_matches_oracle() {
        // The decommit fast path must report exactly the cost and table
        // traffic the oracle's per-slot walk reports, or the cycle
        // equality the machine differential suite asserts would break.
        let mut paged = ShadowPages::new();
        let mut oracle = ShadowHashMapFacility::new();
        let mut setup = NoopSink;
        for f in [
            &mut paged as &mut dyn MetadataFacility,
            &mut oracle as &mut dyn MetadataFacility,
        ] {
            f.store(PAGE_SPAN + 64, Meta { base: 1, bound: 2 }, &mut setup);
        }
        // A span covering all of page 1 plus 3 slots of page 2.
        let mut ps = ScratchSink::new();
        paged.clear_range(PAGE_SPAN, PAGE_SPAN + 24, &mut ps);
        let mut os = ScratchSink::new();
        oracle.clear_range(PAGE_SPAN, PAGE_SPAN + 24, &mut os);
        assert_eq!(ps.cost, os.cost, "decommit fast path cost diverged");
        assert_eq!(ps.touched, os.touched, "table traffic diverged");
        assert_eq!(paged.decommitted_pages(), 1, "page 1 was decommitted");
    }

    #[test]
    fn reset_empties_every_facility_and_reuses_reservation() {
        for fac in [
            &mut ShadowPages::new() as &mut dyn MetadataFacility,
            &mut SharedShadowPages::new_shared(),
            &mut ShadowHashMapFacility::new(),
            &mut HashTableFacility::new(8),
        ] {
            let mut sink = NoopSink;
            for i in 0..64u64 {
                fac.store(
                    0x8000 + i * 8,
                    Meta {
                        base: i + 1,
                        bound: i + 2,
                    },
                    &mut sink,
                );
            }
            fac.store(1 << 50, Meta { base: 9, bound: 10 }, &mut sink);
            assert_eq!(fac.live_entries(), 65, "{}", fac.name());
            fac.reset();
            assert_eq!(
                fac.live_entries(),
                0,
                "{} not empty after reset",
                fac.name()
            );
            assert_eq!(fac.load(0x8000, &mut sink), Meta::NULL, "{}", fac.name());
            assert_eq!(fac.load(1 << 50, &mut sink), Meta::NULL, "{}", fac.name());
            // The facility stays fully usable after reset.
            fac.store(0x8000, Meta { base: 3, bound: 4 }, &mut sink);
            assert_eq!(fac.load(0x8000, &mut sink), Meta { base: 3, bound: 4 });
            assert_eq!(fac.live_entries(), 1);
        }

        // Paged specifics: every frame is parked (committed count drops
        // to zero, nothing is freed), and the directory reservation is
        // not reallocated (its pointer is stable across reset).
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        f.store(0x9000, Meta { base: 1, bound: 2 }, &mut sink);
        f.clear_range(0, 2 * PAGE_SPAN, &mut sink); // park a page id too
        f.store(5 * PAGE_SPAN, Meta { base: 5, bound: 6 }, &mut sink);
        let dir_ptr = f.dir.dir.as_ptr();
        f.reset();
        assert_eq!(f.page_count(), 0);
        assert_eq!(f.decommitted_pages(), 1);
        assert_eq!(f.live_entries(), 0);
        assert!(
            std::ptr::eq(dir_ptr, f.dir.dir.as_ptr()),
            "directory reallocated"
        );
        // Every directory entry that was used is zero again.
        assert_eq!(f.load(0x9000, &mut sink), Meta::NULL);
        assert_eq!(f.load(5 * PAGE_SPAN, &mut sink), Meta::NULL);
    }

    #[test]
    fn copy_range_zero_len_is_noop() {
        let mut f = ShadowPages::new();
        let mut sink = ScratchSink::new();
        f.store(0x5000, Meta { base: 1, bound: 2 }, &mut sink);
        sink.reset();
        f.copy_range(0x6000, 0x5000, 0, &mut sink);
        assert_eq!(sink.cost, 0);
        assert_eq!(f.load(0x6000, &mut sink), Meta::NULL);
    }

    #[test]
    fn reservation_accounting_pinned_across_churn() {
        // Pins `reservation_bytes` across a commit → whole-page-clear
        // decommit → recommit cycle: parked frames are still owned host
        // memory and must never fall out of (or double into) the count.
        const PAGE_BYTES: usize = (SHADOW_PAGE_SLOTS as usize) * std::mem::size_of::<u128>();
        let mut f = ShadowPages::new();
        let mut sink = NoopSink;
        let idle = f.reservation_bytes();
        assert_eq!(
            idle,
            (1usize << SHADOW_DIR_BITS) * std::mem::size_of::<u32>()
        );

        f.store(0x100, Meta { base: 1, bound: 2 }, &mut sink);
        assert_eq!(f.reservation_bytes(), idle + PAGE_BYTES);

        // Whole-page clear decommits the page; the parked frame stays
        // owned and counted.
        f.clear_range(0, PAGE_SPAN, &mut sink);
        assert_eq!(f.decommitted_pages(), 1);
        assert_eq!(
            f.reservation_bytes(),
            idle + PAGE_BYTES,
            "parked frame fell out of the accounting"
        );

        // Recommit — at a different directory entry — reuses the parked
        // frame: no growth, no allocator traffic.
        f.store(37 * PAGE_SPAN, Meta { base: 3, bound: 4 }, &mut sink);
        assert_eq!(f.decommitted_pages(), 0);
        assert_eq!(f.page_count(), 1);
        assert_eq!(f.reservation_bytes(), idle + PAGE_BYTES);

        // A second page is genuinely new memory.
        f.store(0x100, Meta { base: 5, bound: 6 }, &mut sink);
        assert_eq!(f.reservation_bytes(), idle + 2 * PAGE_BYTES);

        // Overflow entries count at the map's actual bucket layout, and
        // the standing estimate must not shrink when an entry is
        // removed — the table keeps its buckets.
        f.store(1 << 50, Meta { base: 7, bound: 8 }, &mut sink);
        let with_overflow = f.reservation_bytes();
        assert!(with_overflow > idle + 2 * PAGE_BYTES, "overflow uncounted");
        f.store(1 << 50, Meta::NULL, &mut sink);
        assert_eq!(
            f.reservation_bytes(),
            with_overflow,
            "standing overflow reservation vanished on remove (len-based estimate)"
        );

        // Reset parks every frame — still owned, still counted, never
        // returned to the host — and keeps the directory reservation
        // and the overflow map's buckets: a warm idle worker's standing
        // cost.
        f.reset();
        assert_eq!(f.live_entries(), 0);
        assert_eq!(f.decommitted_pages(), 2);
        assert_eq!(
            f.reservation_bytes(),
            with_overflow,
            "reset must park frames, not free them"
        );

        // And the next run's first store reuses a parked frame: the
        // reservation is flat across reset churn.
        f.store(0x100, Meta { base: 9, bound: 10 }, &mut sink);
        assert_eq!(f.page_count(), 1);
        assert_eq!(f.decommitted_pages(), 1);
        assert_eq!(f.reservation_bytes(), with_overflow);
    }

    #[test]
    fn shared_reservation_counted_once_per_process() {
        let shared = SharedShadowReservation::new();
        let mut a = SharedShadowPages::with_reservation(shared.clone());
        let b = SharedShadowPages::with_reservation(shared.clone());
        let mut sink = NoopSink;
        let dir_bytes = shared.shared_bytes();
        assert_eq!(
            dir_bytes,
            (1usize << SHADOW_DIR_BITS) * 4 + SharedShadowReservation::frame_pool_capacity_bytes()
        );

        // Both workers report the full reservation (they depend on it),
        // flagging the shared portion so a pool counts it once.
        assert_eq!(a.shared_reservation_bytes(), dir_bytes);
        assert_eq!(b.shared_reservation_bytes(), dir_bytes);

        // An untouched worker owns almost nothing privately — the chunk
        // root, vs. the 256 MiB flat directory of `ShadowPages`.
        let idle_private = b.reservation_bytes() - b.shared_reservation_bytes();
        assert!(idle_private < 1 << 20, "idle private bytes: {idle_private}");

        // Touching a page charges the frame + one directory chunk to
        // that worker alone.
        a.store(0x2000, Meta { base: 1, bound: 2 }, &mut sink);
        let a_private = a.reservation_bytes() - a.shared_reservation_bytes();
        assert!(a_private > idle_private);
        assert_eq!(
            b.reservation_bytes() - b.shared_reservation_bytes(),
            idle_private,
            "sibling charged for another worker's page"
        );
    }

    #[test]
    fn shared_reset_returns_frames_to_the_pool() {
        const PAGE_BYTES: usize = (SHADOW_PAGE_SLOTS as usize) * std::mem::size_of::<u128>();
        let shared = SharedShadowReservation::new();
        let mut a = SharedShadowPages::with_reservation(shared.clone());
        let mut b = SharedShadowPages::with_reservation(shared.clone());
        let mut sink = NoopSink;
        a.store(0x2000, Meta { base: 1, bound: 2 }, &mut sink);
        a.store(37 * PAGE_SPAN, Meta { base: 3, bound: 4 }, &mut sink);
        let committed = a.reservation_bytes() - a.shared_reservation_bytes();

        // Reset hands both frames to the reservation's pool: the
        // worker's private bytes drop back to chunk-root bookkeeping,
        // and the shared figure (pool counted at capacity) is
        // unchanged — pool occupancy never shows up as churn.
        let shared_before = shared.shared_bytes();
        a.reset();
        let idle = a.reservation_bytes() - a.shared_reservation_bytes();
        assert_eq!(
            idle + 2 * PAGE_BYTES,
            committed,
            "frames still charged to the worker after reset"
        );
        assert_eq!(a.decommitted_pages(), 0, "shared reset must pool, not park");
        assert_eq!(shared.shared_bytes(), shared_before);

        // A sibling's next commit drains the pool instead of touching
        // the host allocator: one of the two stashed frames goes to
        // `b`, the other is still pooled.
        b.store(0x2000, Meta { base: 5, bound: 6 }, &mut sink);
        assert_eq!(b.load(0x2000, &mut sink), Meta { base: 5, bound: 6 });
        assert!(shared.take_frame().is_some(), "reset did not stash frames");
        assert!(
            shared.take_frame().is_none(),
            "pool held more than expected"
        );
    }

    #[test]
    fn shared_reset_does_not_disturb_siblings() {
        let shared = SharedShadowReservation::new();
        let mut a = SharedShadowPages::with_reservation(shared.clone());
        let mut b = SharedShadowPages::with_reservation(shared);
        let mut sink = NoopSink;
        let m = Meta {
            base: 0x10,
            bound: 0x20,
        };
        // Identical simulated addresses on purpose: worker overlays
        // must not alias each other through the shared prototype.
        a.store(0x3000, m, &mut sink);
        b.store(
            0x3000,
            Meta {
                base: 0x30,
                bound: 0x40,
            },
            &mut sink,
        );
        b.store(5 * PAGE_SPAN, m, &mut sink);
        a.reset();
        assert_eq!(a.live_entries(), 0);
        assert_eq!(a.load(0x3000, &mut sink), Meta::NULL);
        assert_eq!(b.live_entries(), 2, "sibling lost entries to a reset");
        assert_eq!(
            b.load(0x3000, &mut sink),
            Meta {
                base: 0x30,
                bound: 0x40
            }
        );
        assert_eq!(b.load(5 * PAGE_SPAN, &mut sink), m);
    }

    #[test]
    fn cow_chunks_materialize_on_first_commit_only() {
        let mut f = SharedShadowPages::with_reservation(SharedShadowReservation::new());
        let mut sink = NoopSink;
        let root_only = f.dir.private_bytes();
        // Loads and NULL stores read through the shared prototype
        // without materializing anything.
        assert_eq!(f.load(0x4000, &mut sink), Meta::NULL);
        f.store(0x4000, Meta::NULL, &mut sink);
        f.clear_range(0, 4 * PAGE_SPAN, &mut sink);
        assert_eq!(
            f.dir.private_bytes(),
            root_only,
            "read/NULL paths materialized a chunk"
        );
        // The first real store commits a page and one directory chunk;
        // a second store under the same chunk reuses it.
        let chunk_bytes = DIR_CHUNK_ENTRIES * std::mem::size_of::<u32>();
        f.store(0x4000, Meta { base: 1, bound: 2 }, &mut sink);
        assert_eq!(f.dir.private_bytes(), root_only + chunk_bytes);
        f.store(0x4008, Meta { base: 3, bound: 4 }, &mut sink);
        assert_eq!(f.dir.private_bytes(), root_only + chunk_bytes);
        assert_eq!(f.load(0x4000, &mut sink), Meta { base: 1, bound: 2 });
    }
}
