//! Byte-accurate simulated 64-bit memory and the heap allocator.
//!
//! Memory is a sparse map of 4 KiB pages. Segments mirror a conventional
//! process image so that spatial bugs behave realistically:
//!
//! * **globals** at [`GLOBAL_BASE`] — laid out contiguously in declaration
//!   order, so an overflowing global buffer silently corrupts its neighbor
//!   (the BugBench `compress` bug class);
//! * **heap** at [`HEAP_BASE`] — bump-with-free-list allocator, optional
//!   redzones (used by the Valgrind-like baseline);
//! * **stack** at [`STACK_BASE`], growing upward; frames carry spilled
//!   return tokens and saved frame pointers (see `interp`);
//! * **code** at [`FN_BASE`] — function "addresses" are synthesized, not
//!   backed by pages, so data accesses to code fault.
//!
//! Accesses to unmapped pages return [`MemFault`], the analogue of a
//! segfault; accesses *within* a mapped page but outside any object are
//! silent corruption — exactly the behaviour that makes spatial bugs
//! dangerous and bounds checking worthwhile.

use std::collections::HashMap;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Base address of the global/data segment.
pub const GLOBAL_BASE: u64 = 0x0000_0000_0001_0000;
/// Base address of the heap segment.
pub const HEAP_BASE: u64 = 0x0000_2000_0000_0000;
/// Base address of the stack segment (grows upward).
pub const STACK_BASE: u64 = 0x0000_7F00_0000_0000;
/// Base "address" of the code segment (function pointers).
pub const FN_BASE: u64 = 0x0000_4000_0000_0000;
/// Byte stride between synthesized function addresses.
pub const FN_STRIDE: u64 = 16;

/// Encodes a function id as a code address.
pub fn fn_addr(index: u32) -> u64 {
    FN_BASE + index as u64 * FN_STRIDE
}

/// Decodes a code address back to a function index, if well-formed.
pub fn decode_fn_addr(addr: u64) -> Option<u32> {
    if addr >= FN_BASE && (addr - FN_BASE).is_multiple_of(FN_STRIDE) {
        let idx = (addr - FN_BASE) / FN_STRIDE;
        u32::try_from(idx).ok()
    } else {
        None
    }
}

/// FNV-1a offset basis of [`Mem::content_hash`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Block size of the zero-run fold in [`Mem::content_hash`].
const ZERO_BLOCK: usize = 64;
// Pages split into whole blocks, so the fold sees every byte.
const _: () = assert!((PAGE_SIZE as usize).is_multiple_of(ZERO_BLOCK));
/// FNV-1a folds a zero byte as `h *= FNV_PRIME` (the xor is a no-op),
/// so a block of [`ZERO_BLOCK`] zero bytes folds as one multiply by
/// `FNV_PRIME^ZERO_BLOCK` (mod 2^64).
const FNV_PRIME_ZERO_BLOCK: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < ZERO_BLOCK {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// Folds `bytes` into the FNV-1a state `h`, one byte at a time.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// An out-of-segment access (the simulated SIGSEGV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u64,
    /// True if the access was a write.
    pub write: bool,
}

/// Sparse paged memory.
///
/// Page frames live in a flat store indexed through the page table, and
/// the most recent translation is cached: loop-shaped access patterns
/// (array scans, stack traffic) hit the same page repeatedly, so the
/// common case is one comparison instead of a hash lookup. No page is
/// ever unmapped *within* a run, so the cached slot cannot go stale
/// mid-run; the one path that does drop mappings — [`reset`](Mem::reset)
/// between runs of a reused machine — must (and does) invalidate the
/// cache, because both `slot_of` and `map_range` trust it without
/// consulting the page table.
#[derive(Debug)]
pub struct Mem {
    /// Page index → slot in `store`.
    pages: HashMap<u64, u32>,
    /// Page frames, in mapping order.
    store: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    /// Frames released by [`reset`](Mem::reset), recycled (re-zeroed)
    /// by `map_range` before a fresh frame is ever allocated.
    free_frames: Vec<u32>,
    /// Last translation `(page index, slot)`; the sentinel page index
    /// `u64::MAX` is unreachable (addresses are `< 2^64`, so page
    /// indices are `< 2^52`).
    last: (u64, u32),
    /// Total bytes read/written (for statistics).
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

impl Default for Mem {
    fn default() -> Self {
        Mem {
            pages: HashMap::new(),
            store: Vec::new(),
            free_frames: Vec::new(),
            last: (u64::MAX, 0),
            bytes_read: 0,
            bytes_written: 0,
        }
    }
}

impl Mem {
    /// Creates empty memory.
    pub fn new() -> Self {
        Mem::default()
    }

    /// Translates a page index to its store slot, through the one-entry
    /// translation cache.
    #[inline]
    fn slot_of(&mut self, page: u64) -> Option<u32> {
        if self.last.0 == page {
            return Some(self.last.1);
        }
        let s = *self.pages.get(&page)?;
        self.last = (page, s);
        Some(s)
    }

    /// Maps (zero-filled) every page overlapping `[addr, addr+len)`.
    pub fn map_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for p in first..=last {
            // The cached translation proves the page is mapped without
            // a hash lookup (frame setup re-maps the same stack page on
            // every call).
            if p == self.last.0 || self.pages.contains_key(&p) {
                continue;
            }
            let slot = match self.free_frames.pop() {
                // Recycle a frame dropped by `reset`, restoring the
                // zero-fill a fresh mapping guarantees.
                Some(s) => {
                    self.store[s as usize].fill(0);
                    s
                }
                None => {
                    let slot = u32::try_from(self.store.len()).expect("page-store overflow");
                    self.store.push(Box::new([0u8; PAGE_SIZE as usize]));
                    slot
                }
            };
            self.pages.insert(p, slot);
        }
    }

    /// Unmaps every page and clears the statistics, returning the memory
    /// to its just-constructed *observable* state while keeping the
    /// allocated page frames for recycling — a long-lived machine that
    /// resets between requests pays the host allocator only for its
    /// high-water page count.
    ///
    /// The one-entry translation cache must be invalidated here: it is
    /// the one piece of state that outlives the page table. `slot_of`
    /// returns the cached slot without consulting `pages`, and
    /// `map_range` takes a cache hit as proof the page is already
    /// mapped — a stale entry would let the next run silently read the
    /// previous run's dropped frame, or skip the zero-fill of a page
    /// the new allocation layout maps at the same address.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.free_frames.clear();
        self.free_frames
            .extend(0..u32::try_from(self.store.len()).expect("page-store overflow"));
        self.last = (u64::MAX, 0);
        self.bytes_read = 0;
        self.bytes_written = 0;
    }

    /// True if `addr` is on a mapped page.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr / PAGE_SIZE))
    }

    /// Number of mapped pages (memory-overhead statistics).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads `buf.len()` bytes from `addr`.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is on an unmapped page.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        self.bytes_read += buf.len() as u64;
        let in_page = (addr % PAGE_SIZE) as usize;
        // Fast path: the access stays on one page — one translation,
        // one slice copy. (Empty reads succeed even on unmapped
        // addresses, as they always have; the slow loop handles them.)
        if !buf.is_empty() && in_page + buf.len() <= PAGE_SIZE as usize {
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    let n = buf.len();
                    buf.copy_from_slice(&self.store[s as usize][in_page..in_page + n]);
                    Ok(())
                }
                None => Err(MemFault { addr, write: false }),
            };
        }
        self.read_multi_page(addr, buf)
    }

    fn read_multi_page(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), MemFault> {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.slot_of(page) {
                Some(s) => {
                    buf[off..off + n].copy_from_slice(&self.store[s as usize][in_page..in_page + n])
                }
                None => {
                    return Err(MemFault {
                        addr: a,
                        write: false,
                    })
                }
            }
            off += n;
        }
        Ok(())
    }

    /// Writes `buf` to `addr`.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if any byte is on an unmapped page.
    pub fn write(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        self.bytes_written += buf.len() as u64;
        let in_page = (addr % PAGE_SIZE) as usize;
        if !buf.is_empty() && in_page + buf.len() <= PAGE_SIZE as usize {
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    self.store[s as usize][in_page..in_page + buf.len()].copy_from_slice(buf);
                    Ok(())
                }
                None => Err(MemFault { addr, write: true }),
            };
        }
        self.write_multi_page(addr, buf)
    }

    fn write_multi_page(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemFault> {
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let page = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.slot_of(page) {
                Some(s) => {
                    self.store[s as usize][in_page..in_page + n].copy_from_slice(&buf[off..off + n])
                }
                None => {
                    return Err(MemFault {
                        addr: a,
                        write: true,
                    })
                }
            }
            off += n;
        }
        Ok(())
    }

    /// Reads an unsigned little-endian integer of `size` ∈ {1,2,4,8} bytes.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped access.
    pub fn read_uint(&mut self, addr: u64, size: u64) -> Result<u64, MemFault> {
        // Fixed-width fast path: a machine-word load instead of a
        // variable-length copy when the access stays on one page.
        let in_page = (addr % PAGE_SIZE) as usize;
        if matches!(size, 1 | 2 | 4 | 8) && in_page + size as usize <= PAGE_SIZE as usize {
            self.bytes_read += size;
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    let p = &self.store[s as usize][in_page..];
                    Ok(match size {
                        1 => p[0] as u64,
                        2 => u16::from_le_bytes(p[..2].try_into().expect("2 bytes")) as u64,
                        4 => u32::from_le_bytes(p[..4].try_into().expect("4 bytes")) as u64,
                        _ => u64::from_le_bytes(p[..8].try_into().expect("8 bytes")),
                    })
                }
                None => Err(MemFault { addr, write: false }),
            };
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b[..size as usize])?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes the low `size` bytes of `v`, little-endian.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on unmapped access.
    pub fn write_uint(&mut self, addr: u64, size: u64, v: u64) -> Result<(), MemFault> {
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + size as usize <= PAGE_SIZE as usize && matches!(size, 1 | 2 | 4 | 8) {
            return match self.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    self.bytes_written += size;
                    let p = &mut self.store[s as usize][in_page..];
                    match size {
                        1 => p[0] = v as u8,
                        2 => p[..2].copy_from_slice(&(v as u16).to_le_bytes()),
                        4 => p[..4].copy_from_slice(&(v as u32).to_le_bytes()),
                        _ => p[..8].copy_from_slice(&v.to_le_bytes()),
                    }
                    Ok(())
                }
                None => {
                    self.bytes_written += size;
                    Err(MemFault { addr, write: true })
                }
            };
        }
        let b = v.to_le_bytes();
        self.write(addr, &b[..size as usize])
    }

    /// Reads an unsigned little-endian integer of `size` (≤ 8) bytes
    /// with the access *clamped* to `[lo, hi)`: in-bounds bytes come
    /// from memory, out-of-bounds bytes read as zero (a "zeroed read").
    /// This is the access shape a repair-and-continue violation policy
    /// substitutes for an out-of-bounds load — a fully out-of-bounds
    /// access yields 0 and touches no memory at all.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if an *in-bounds* byte lies on an unmapped page.
    pub fn read_uint_clamped(
        &mut self,
        addr: u64,
        size: u64,
        lo: u64,
        hi: u64,
    ) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        for i in 0..size.min(8) {
            let a = addr.wrapping_add(i);
            if a >= lo && a < hi {
                b[i as usize] = self.read_uint(a, 1)? as u8;
            }
        }
        Ok(u64::from_le_bytes(b))
    }

    /// Writes the low `size` (≤ 8) bytes of `v` little-endian with the
    /// access clamped to `[lo, hi)`: only in-bounds bytes are stored (a
    /// "truncated write"), out-of-bounds bytes are dropped. The
    /// repair-and-continue counterpart of an out-of-bounds store; a
    /// fully out-of-bounds access stores nothing.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if an *in-bounds* byte lies on an unmapped page.
    pub fn write_uint_clamped(
        &mut self,
        addr: u64,
        size: u64,
        v: u64,
        lo: u64,
        hi: u64,
    ) -> Result<(), MemFault> {
        let b = v.to_le_bytes();
        for i in 0..size.min(8) {
            let a = addr.wrapping_add(i);
            if a >= lo && a < hi {
                self.write_uint(a, 1, b[i as usize] as u64)?;
            }
        }
        Ok(())
    }

    /// Order-independent digest of the full memory image (every mapped
    /// page's index and contents, folded in sorted page order). Two
    /// memories with identical mapped pages and bytes hash equal —
    /// the equality the whole-program differential suite asserts on
    /// final memory across metadata facilities.
    pub fn content_hash(&self) -> u64 {
        self.digest(|_| true)
    }

    /// [`content_hash`](Self::content_hash) restricted to pages whose
    /// start address falls in `[lo, hi)` — e.g. the globals+heap region
    /// below [`FN_BASE`], which holds exactly the program-visible data
    /// an uninstrumented twin must reproduce (stack pages carry frame
    /// residue that legitimately differs across instrumentation).
    pub fn content_hash_range(&self, lo: u64, hi: u64) -> u64 {
        self.digest(|i| (lo / PAGE_SIZE..hi / PAGE_SIZE).contains(&i))
    }

    /// FNV-1a over (page index, page bytes) of every mapped page whose
    /// index passes `keep`, in sorted page order. All-zero 64-byte
    /// blocks — most of a typical image — fold in one multiply each
    /// (see [`FNV_PRIME_ZERO_BLOCK`]); the digest is the byte-at-a-time
    /// one all the same.
    fn digest(&self, keep: impl Fn(u64) -> bool) -> u64 {
        let mut pages: Vec<(u64, u32)> = self
            .pages
            .iter()
            .map(|(&i, &slot)| (i, slot))
            .filter(|&(i, _)| keep(i))
            .collect();
        pages.sort_unstable();
        let mut h = FNV_OFFSET;
        for (i, slot) in pages {
            h = fnv1a(h, &i.to_le_bytes());
            let (blocks, _) = self.store[slot as usize].as_chunks::<ZERO_BLOCK>();
            for block in blocks {
                // A whole-array compare, not a byte fold: it compiles to
                // a few vector compares per block.
                h = if *block == [0; ZERO_BLOCK] {
                    h.wrapping_mul(FNV_PRIME_ZERO_BLOCK)
                } else {
                    fnv1a(h, block)
                };
            }
        }
        h
    }

    /// Reads a NUL-terminated C string (bounded by `max` bytes).
    ///
    /// # Errors
    ///
    /// [`MemFault`] if the string runs onto an unmapped page before a NUL.
    pub fn read_cstr(&mut self, addr: u64, max: u64) -> Result<Vec<u8>, MemFault> {
        let mut out = Vec::new();
        for i in 0..max {
            let c = self.read_uint(addr + i, 1)? as u8;
            if c == 0 {
                break;
            }
            out.push(c);
        }
        Ok(out)
    }
}

/// One live heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapBlock {
    /// User address.
    pub addr: u64,
    /// User-visible size.
    pub size: u64,
}

/// Bump allocator with size-class free lists and optional redzones.
///
/// Redzones (`redzone > 0`) pad each allocation on both sides; the
/// Valgrind-like baseline marks them unaddressable to catch heap
/// overflows. SoftBound itself needs no redzones.
#[derive(Debug)]
pub struct Heap {
    next: u64,
    limit: u64,
    redzone: u64,
    free: HashMap<u64, Vec<u64>>, // rounded size -> addresses
    live: HashMap<u64, u64>,      // addr -> user size
    /// Number of successful allocations.
    pub alloc_count: u64,
    /// Number of frees.
    pub free_count: u64,
    /// High-water mark of live bytes.
    pub peak_live: u64,
    live_bytes: u64,
}

impl Heap {
    /// Creates a heap with the given redzone padding (0 for none).
    pub fn new(redzone: u64) -> Self {
        Heap {
            next: HEAP_BASE,
            limit: HEAP_BASE + (64 << 30), // 64 GiB of address space
            redzone,
            free: HashMap::new(),
            live: HashMap::new(),
            alloc_count: 0,
            free_count: 0,
            peak_live: 0,
            live_bytes: 0,
        }
    }

    /// The configured redzone size.
    pub fn redzone(&self) -> u64 {
        self.redzone
    }

    fn class_of(size: u64) -> u64 {
        size.next_power_of_two().max(16)
    }

    /// Allocates `size` bytes (16-aligned), mapping pages in `mem`.
    /// Returns `None` when address space is exhausted.
    pub fn alloc(&mut self, mem: &mut Mem, size: u64) -> Option<u64> {
        let user = size.max(1);
        let class = Self::class_of(user);
        self.alloc_count += 1;
        let addr = if let Some(list) = self.free.get_mut(&class) {
            list.pop()
        } else {
            None
        };
        let addr = match addr {
            Some(a) => a,
            None => {
                let total = class + 2 * self.redzone;
                let base = self.next;
                if base + total > self.limit {
                    return None;
                }
                self.next = (base + total + 15) & !15;
                base + self.redzone
            }
        };
        mem.map_range(addr, class);
        // Zero the block (reused blocks keep stale contents otherwise;
        // zeroing keeps runs deterministic while reuse of *addresses* —
        // what SoftBound's metadata clearing is about — still happens).
        // Chunked through a fixed buffer so allocating simulated memory
        // never allocates host memory.
        let zeros = [0u8; 256];
        let total = user.min(class);
        let mut off = 0u64;
        while off < total {
            let n = (total - off).min(zeros.len() as u64);
            let _ = mem.write(addr + off, &zeros[..n as usize]);
            off += n;
        }
        self.live.insert(addr, user);
        self.live_bytes += user;
        self.peak_live = self.peak_live.max(self.live_bytes);
        Some(addr)
    }

    /// Frees a block; returns its user size, or `None` for a bad pointer
    /// (double free / wild free).
    pub fn dealloc(&mut self, addr: u64) -> Option<u64> {
        let size = self.live.remove(&addr)?;
        self.free_count += 1;
        self.live_bytes -= size;
        self.free
            .entry(Self::class_of(size))
            .or_default()
            .push(addr);
        Some(size)
    }

    /// User size of a live block.
    pub fn size_of(&self, addr: u64) -> Option<u64> {
        self.live.get(&addr).copied()
    }

    /// Iterates over live blocks.
    pub fn live_blocks(&self) -> impl Iterator<Item = HeapBlock> + '_ {
        self.live
            .iter()
            .map(|(&addr, &size)| HeapBlock { addr, size })
    }

    /// True if `addr` falls inside a live user block (used by the
    /// Valgrind-like baseline's addressability map).
    pub fn find_block(&self, addr: u64) -> Option<HeapBlock> {
        // Linear probe over live blocks; fine for workload-scale heaps and
        // only used by baselines that model their own lookup cost anyway.
        self.live
            .iter()
            .find(|(&a, &s)| addr >= a && addr < a + s)
            .map(|(&a, &s)| HeapBlock { addr: a, size: s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = Mem::new();
        m.map_range(0x1000, 64);
        m.write_uint(0x1008, 8, 0xdead_beef_cafe_f00d)
            .expect("write");
        assert_eq!(m.read_uint(0x1008, 8).expect("read"), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_uint(0x1008, 4).expect("read"), 0xcafe_f00d);
        assert_eq!(m.read_uint(0x1008, 1).expect("read"), 0x0d);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Mem::new();
        m.map_range(PAGE_SIZE - 4, 8);
        m.write_uint(PAGE_SIZE - 4, 8, u64::MAX)
            .expect("write spans pages");
        assert_eq!(m.read_uint(PAGE_SIZE - 4, 8).expect("read"), u64::MAX);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Mem::new();
        assert_eq!(
            m.read_uint(0x5000, 8),
            Err(MemFault {
                addr: 0x5000,
                write: false
            })
        );
        assert_eq!(
            m.write_uint(0x5000, 8, 1),
            Err(MemFault {
                addr: 0x5000,
                write: true
            })
        );
    }

    #[test]
    fn partial_cross_page_fault_reports_address() {
        let mut m = Mem::new();
        m.map_range(0, PAGE_SIZE); // only page 0
        let e = m
            .write_uint(PAGE_SIZE - 2, 4, 0)
            .expect_err("faults on page 1");
        assert_eq!(e.addr, PAGE_SIZE);
        assert!(e.write);
    }

    #[test]
    fn cstr_reading() {
        let mut m = Mem::new();
        m.map_range(0x2000, 16);
        m.write(0x2000, b"hi\0junk").expect("write");
        assert_eq!(m.read_cstr(0x2000, 16).expect("read"), b"hi");
    }

    #[test]
    fn clamped_read_zero_fills_out_of_bounds_bytes() {
        let mut m = Mem::new();
        m.map_range(0x1000, 64);
        m.write_uint(0x1000, 8, u64::MAX).expect("write");
        // Object is [0x1000, 0x1004): upper 4 bytes of the read are OOB.
        assert_eq!(
            m.read_uint_clamped(0x1000, 8, 0x1000, 0x1004)
                .expect("read"),
            0x0000_0000_ffff_ffff
        );
        // Fully out of bounds: zero, even on unmapped addresses.
        assert_eq!(m.read_uint_clamped(0x9000, 8, 0x1000, 0x1004), Ok(0));
        // Straddling the base: low bytes OOB, high bytes in.
        assert_eq!(
            m.read_uint_clamped(0xffe, 4, 0x1000, 0x1004).expect("read"),
            0xffff_0000
        );
    }

    #[test]
    fn clamped_write_stores_only_in_bounds_bytes() {
        let mut m = Mem::new();
        m.map_range(0x1000, 64);
        m.write_uint_clamped(0x1002, 4, 0xaabb_ccdd, 0x1000, 0x1004)
            .expect("write");
        // Bytes at 0x1002..0x1004 stored, 0x1004..0x1006 dropped.
        assert_eq!(m.read_uint(0x1000, 8).expect("read"), 0xccdd_0000);
        // Fully out of bounds: no fault, no store, even unmapped.
        m.write_uint_clamped(0x9000, 8, 0x1234, 0x1000, 0x1004)
            .expect("write nothing");
        assert!(!m.is_mapped(0x9000));
    }

    #[test]
    fn fn_addr_roundtrip() {
        assert_eq!(decode_fn_addr(fn_addr(0)), Some(0));
        assert_eq!(decode_fn_addr(fn_addr(99)), Some(99));
        assert_eq!(decode_fn_addr(fn_addr(7) + 1), None);
        assert_eq!(decode_fn_addr(0x1234), None);
    }

    #[test]
    fn reset_invalidates_translation_cache() {
        let mut m = Mem::new();
        m.map_range(0x1000, 8);
        m.write_uint(0x1000, 8, 0xAB)
            .expect("write warms the cache");
        m.reset();
        // Failure mode being pinned: a surviving (page, slot) cache entry
        // lets this read silently return the dropped frame's contents
        // instead of faulting on the now-unmapped page.
        assert_eq!(
            m.read_uint(0x1000, 8),
            Err(MemFault {
                addr: 0x1000,
                write: false
            })
        );
    }

    #[test]
    fn reset_invalidates_map_range_mapped_proof() {
        let mut m = Mem::new();
        m.map_range(0x1000, 8);
        m.write_uint(0x1000, 8, 0xdead_beef).expect("write");
        m.reset();
        // `map_range` takes a cache hit as proof the page is mapped; a
        // stale entry would skip both the mapping and the zero-fill.
        m.map_range(0x1000, 8);
        assert_eq!(
            m.read_uint(0x1000, 8).expect("mapped again"),
            0,
            "recycled frame must be zero-filled"
        );
    }

    #[test]
    fn reset_recycles_frames_across_different_layouts() {
        let mut m = Mem::new();
        m.map_range(0x1000, PAGE_SIZE * 2);
        m.write_uint(0x1000, 8, 7).expect("write");
        assert_eq!(m.mapped_pages(), 2);
        m.reset();
        assert_eq!(m.mapped_pages(), 0);
        assert_eq!((m.bytes_read, m.bytes_written), (0, 0));
        // A different layout on the second run: recycled frames, zeroed,
        // observably identical to a fresh memory with the same mappings.
        m.map_range(0x9000, 8);
        let mut fresh = Mem::new();
        fresh.map_range(0x9000, 8);
        assert_eq!(m.content_hash(), fresh.content_hash());
    }

    /// The byte-at-a-time FNV-1a digest over (page index, page bytes)
    /// in sorted page order — the definition `content_hash` and
    /// `content_hash_range` must reproduce bit for bit.
    fn reference_digest(m: &Mem, lo: u64, hi: u64) -> u64 {
        let mut idxs: Vec<u64> = m
            .pages
            .keys()
            .copied()
            .filter(|&i| (lo / PAGE_SIZE..hi / PAGE_SIZE).contains(&i))
            .collect();
        idxs.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mix = |byte: u8, h: &mut u64| {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for i in idxs {
            for b in i.to_le_bytes() {
                mix(b, &mut h);
            }
            for &b in m.store[m.pages[&i] as usize].iter() {
                mix(b, &mut h);
            }
        }
        h
    }

    /// Both digests equal the reference, whole-image and over ranges
    /// that split the segments.
    fn assert_digest_matches_reference(m: &Mem, what: &str) {
        assert_eq!(
            m.content_hash(),
            reference_digest(m, 0, u64::MAX),
            "{what}: content_hash"
        );
        for (lo, hi) in [
            (0, FN_BASE),
            (HEAP_BASE, u64::MAX),
            (GLOBAL_BASE + PAGE_SIZE, STACK_BASE + 2 * PAGE_SIZE),
            (STACK_BASE, STACK_BASE),
        ] {
            assert_eq!(
                m.content_hash_range(lo, hi),
                reference_digest(m, lo, hi),
                "{what}: content_hash_range({lo:#x}, {hi:#x})"
            );
        }
    }

    #[test]
    fn digest_matches_byte_at_a_time_reference() {
        let mut zero = Mem::new();
        zero.map_range(GLOBAL_BASE, 3 * PAGE_SIZE);
        zero.map_range(STACK_BASE, PAGE_SIZE);
        assert_digest_matches_reference(&zero, "all-zero pages");
        assert_digest_matches_reference(&Mem::new(), "empty image");

        let mut ones = Mem::new();
        ones.map_range(HEAP_BASE, 2 * PAGE_SIZE);
        for a in (HEAP_BASE..HEAP_BASE + 2 * PAGE_SIZE).step_by(8) {
            ones.write_uint(a, 8, u64::MAX).expect("mapped");
        }
        assert_digest_matches_reference(&ones, "all-0xFF pages");

        // One non-zero byte at the first, then at the last, byte of
        // every 64-byte block.
        for block in (0..PAGE_SIZE).step_by(ZERO_BLOCK) {
            for (off, v) in [(block, 0x01), (block + ZERO_BLOCK as u64 - 1, 0x80)] {
                let mut m = Mem::new();
                m.map_range(GLOBAL_BASE, 2 * PAGE_SIZE);
                m.write_uint(GLOBAL_BASE + PAGE_SIZE + off, 1, v)
                    .expect("mapped");
                assert_digest_matches_reference(&m, &format!("one byte at {off}"));
            }
        }

        // Seeded random sparse pages, mapped in unsorted order across
        // every segment.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..20 {
            let mut m = Mem::new();
            let mut pages = Vec::new();
            for _ in 0..1 + next() % 6 {
                let base = [GLOBAL_BASE, HEAP_BASE, STACK_BASE][(next() % 3) as usize];
                let page = base + (next() % 16) * PAGE_SIZE;
                m.map_range(page, PAGE_SIZE);
                pages.push(page);
            }
            for _ in 0..next() % 40 {
                let page = pages[(next() as usize) % pages.len()];
                let v = next();
                m.write_uint(page + next() % PAGE_SIZE, 1, v)
                    .expect("mapped");
            }
            assert_digest_matches_reference(&m, &format!("sparse round {round}"));
        }
    }

    #[test]
    fn heap_alloc_and_free() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 100).expect("alloc");
        assert!(a >= HEAP_BASE);
        assert!(mem.is_mapped(a));
        assert_eq!(h.size_of(a), Some(100));
        assert_eq!(h.dealloc(a), Some(100));
        assert_eq!(h.dealloc(a), None, "double free detected");
    }

    #[test]
    fn heap_reuses_freed_blocks() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 64).expect("alloc");
        h.dealloc(a);
        let b = h.alloc(&mut mem, 64).expect("alloc");
        assert_eq!(a, b, "address reuse is what makes stale metadata dangerous");
    }

    #[test]
    fn heap_reuse_zeroes_contents() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 32).expect("alloc");
        mem.write_uint(a, 8, 0x1234).expect("write");
        h.dealloc(a);
        let b = h.alloc(&mut mem, 32).expect("alloc");
        assert_eq!(mem.read_uint(b, 8).expect("read"), 0);
    }

    #[test]
    fn heap_redzones_separate_blocks() {
        let mut mem = Mem::new();
        let mut h = Heap::new(16);
        let a = h.alloc(&mut mem, 32).expect("alloc");
        let b = h.alloc(&mut mem, 32).expect("alloc");
        assert!(
            b >= a + 32 + 32,
            "redzones keep blocks apart (a={a:#x}, b={b:#x})"
        );
    }

    #[test]
    fn find_block_contains() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 40).expect("alloc");
        assert_eq!(h.find_block(a + 39).map(|b| b.addr), Some(a));
        assert_eq!(h.find_block(a + 40), None);
    }

    #[test]
    fn peak_live_tracking() {
        let mut mem = Mem::new();
        let mut h = Heap::new(0);
        let a = h.alloc(&mut mem, 100).expect("a");
        let _b = h.alloc(&mut mem, 200).expect("b");
        h.dealloc(a);
        assert_eq!(h.peak_live, 300);
    }
}
