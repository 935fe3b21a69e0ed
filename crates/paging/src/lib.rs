#![warn(missing_docs)]
//! x86-64 four-level page tables with the NX bit and huge pages.
//!
//! Flick repurposes ordinary x86-64 virtual-memory machinery as its
//! migration trigger: functions compiled for the NxP live in pages whose
//! PTE has the **NX (no-execute, bit 63)** bit set, so a host fetch traps,
//! while the NxP inverts the convention and traps on pages *without* NX
//! (§III-B). The NxP's programmable MMU walks the *same* page tables as
//! the host — same CR3, same PTE layout, including 2 MiB and 1 GiB huge
//! pages, which §V uses to keep the 4 GiB NxP storage in just four 1 GiB
//! TLB entries.
//!
//! This crate implements the PTE bit layout, table construction
//! ([`AddressSpace`]), the software walker ([`walk`]) and
//! `mprotect`-style permission flipping ([`AddressSpace::protect`]).
//!
//! # Examples
//!
//! ```
//! use flick_mem::{PhysAddr, PhysMem, VirtAddr};
//! use flick_paging::{flags, AddressSpace, BumpFrameAlloc, PageSize};
//!
//! let mut mem = PhysMem::new();
//! let mut alloc = BumpFrameAlloc::new(PhysAddr(0x10_0000), PhysAddr(0x20_0000));
//! let mut aspace = AddressSpace::new(&mut mem, &mut alloc);
//! aspace.map(
//!     &mut mem, &mut alloc,
//!     VirtAddr(0x40_0000), PhysAddr(0x5000), PageSize::Size4K,
//!     flags::PRESENT | flags::WRITABLE | flags::USER,
//! )?;
//! let t = flick_paging::walk(|a| mem.read_u64(a), aspace.cr3(), VirtAddr(0x40_0123))?;
//! assert_eq!(t.pa, PhysAddr(0x5123));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use flick_mem::{PhysAddr, PhysMem, VirtAddr, PAGE_SIZE};
use std::error::Error;
use std::fmt;

/// PTE flag bits (x86-64 layout).
pub mod flags {
    /// Present.
    pub const PRESENT: u64 = 1 << 0;
    /// Writable.
    pub const WRITABLE: u64 = 1 << 1;
    /// User-accessible.
    pub const USER: u64 = 1 << 2;
    /// Accessed (set by walkers in hardware; unused in the model).
    pub const ACCESSED: u64 = 1 << 5;
    /// Dirty.
    pub const DIRTY: u64 = 1 << 6;
    /// Page size — at PDPT/PD level marks a 1 GiB / 2 MiB leaf.
    pub const HUGE: u64 = 1 << 7;
    /// No-execute (XD). This is the bit Flick's migration trigger rides.
    pub const NX: u64 = 1 << 63;

    /// Low bit of the ISA-tag field. Bits 52–62 of an x86-64 PTE are
    /// software-available when 4-level paging is in use; Flick's loader
    /// stores `isa.tag() + 1` of the text's ISA in bits 52–54 of NX-set
    /// text pages so an N-way fleet can tell *whose* accelerator code a
    /// page holds. `0` means untagged (host text, data, stacks — or
    /// images produced before tagging existed, which every consumer must
    /// treat as classic-NxP text).
    pub const ISA_TAG_SHIFT: u64 = 52;
    /// Mask of the ISA-tag field (bits 52–54).
    pub const ISA_TAG_MASK: u64 = 0x7 << ISA_TAG_SHIFT;

    /// Flag bits encoding ISA tag `t` (pass `isa.tag() + 1`).
    ///
    /// # Panics
    ///
    /// Panics when `t` does not fit the 3-bit field.
    pub const fn isa_tag_bits(t: u8) -> u64 {
        assert!(t < 8, "ISA tag field is 3 bits");
        (t as u64) << ISA_TAG_SHIFT
    }
}

/// Mask of the physical-frame address bits in a PTE.
const ADDR_MASK: u64 = 0x000F_FFFF_FFFF_F000;

/// Leaf page sizes supported by the x86-64 format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB leaf in the PT.
    Size4K,
    /// 2 MiB leaf in the PD.
    Size2M,
    /// 1 GiB leaf in the PDPT.
    Size1G,
}

impl PageSize {
    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4 << 10,
            PageSize::Size2M => 2 << 20,
            PageSize::Size1G => 1 << 30,
        }
    }

    /// Page-table level at which this leaf lives (0 = PT, 1 = PD, 2 = PDPT).
    pub const fn leaf_level(self) -> u8 {
        match self {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KiB"),
            PageSize::Size2M => write!(f, "2MiB"),
            PageSize::Size1G => write!(f, "1GiB"),
        }
    }
}

/// A raw page-table entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pte(pub u64);

impl Pte {
    /// Builds an entry from a frame address and flags.
    ///
    /// # Panics
    ///
    /// Panics if `pa` has bits outside the frame-address mask.
    pub fn new(pa: PhysAddr, fl: u64) -> Self {
        assert_eq!(pa.as_u64() & !ADDR_MASK, 0, "frame address {pa} misaligned");
        Pte(pa.as_u64() | fl)
    }

    /// The frame (or next-level table) address.
    pub fn addr(self) -> PhysAddr {
        PhysAddr(self.0 & ADDR_MASK)
    }

    /// True when present.
    pub fn present(self) -> bool {
        self.0 & flags::PRESENT != 0
    }

    /// True when the NX bit is set.
    pub fn nx(self) -> bool {
        self.0 & flags::NX != 0
    }

    /// True when this is a huge-page leaf (only meaningful at PD/PDPT).
    pub fn huge(self) -> bool {
        self.0 & flags::HUGE != 0
    }

    /// True when writable.
    pub fn writable(self) -> bool {
        self.0 & flags::WRITABLE != 0
    }

    /// The ISA-tag field (0 = untagged; otherwise `isa.tag() + 1`).
    pub fn isa_tag(self) -> u8 {
        ((self.0 & flags::ISA_TAG_MASK) >> flags::ISA_TAG_SHIFT) as u8
    }

    /// Raw bits.
    pub fn bits(self) -> u64 {
        self.0
    }
}

/// A successful translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Physical address corresponding to the queried virtual address.
    pub pa: PhysAddr,
    /// Leaf page size (what a TLB entry would cover).
    pub page: PageSize,
    /// Virtual base of the leaf page.
    pub va_base: VirtAddr,
    /// Physical base of the leaf page.
    pub pa_base: PhysAddr,
    /// Effective NX: true if *any* level sets NX (x86 semantics).
    pub nx: bool,
    /// Effective writability: true only if every level allows writes.
    pub writable: bool,
    /// ISA tag of the *leaf* entry (0 = untagged). Unlike NX, the tag is
    /// pure software metadata, so intermediate levels do not contribute.
    pub isa_tag: u8,
    /// Number of page-table loads the walk performed (1 GiB page = 2,
    /// 2 MiB = 3, 4 KiB = 4) — this is what the programmable MMU pays
    /// over PCIe per miss.
    pub levels: u8,
}

/// A failed walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkError {
    /// A non-present entry was found at the given level (3 = PML4 … 0 = PT).
    NotPresent {
        /// Level index of the missing entry.
        level: u8,
        /// The address whose translation failed.
        va: VirtAddr,
    },
    /// An entry used a layout the hardware forbids — e.g. the PS (huge)
    /// bit set in a PML4 entry, which x86-64 reserves. Real MMUs raise a
    /// reserved-bit page fault here; the model surfaces the same thing
    /// as a typed error so a corrupted table degrades to a fault instead
    /// of aborting the simulator.
    CorruptEntry {
        /// Level index of the malformed entry.
        level: u8,
        /// The address whose translation failed.
        va: VirtAddr,
    },
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::NotPresent { level, va } => {
                write!(f, "page not present at level {level} translating {va}")
            }
            WalkError::CorruptEntry { level, va } => {
                write!(f, "corrupt page-table entry at level {level} translating {va}")
            }
        }
    }
}

impl Error for WalkError {}

/// Walks the four-level tables rooted at `cr3`, reading each entry via
/// `read_pte` (callers charge per-read latency there — the NxP MMU passes
/// a closure that crosses the simulated PCIe link).
///
/// # Errors
///
/// Returns [`WalkError::NotPresent`] when an entry on the path is not
/// present, [`WalkError::CorruptEntry`] when an entry sets reserved
/// bits (the PS bit in a PML4 entry).
pub fn walk(
    mut read_pte: impl FnMut(PhysAddr) -> u64,
    cr3: PhysAddr,
    va: VirtAddr,
) -> Result<Translation, WalkError> {
    let mut table = cr3;
    let mut nx = false;
    let mut writable = true;
    for level in (0..=3u8).rev() {
        let loads = 4 - level;
        let slot = table + va.pt_index(level) as u64 * 8;
        let pte = Pte(read_pte(slot.as_u64().into()));
        if !pte.present() {
            return Err(WalkError::NotPresent { level, va });
        }
        if level == 3 && pte.huge() {
            // PS is reserved in PML4 entries: a table this malformed can
            // only come from corruption, and hardware faults on it.
            return Err(WalkError::CorruptEntry { level, va });
        }
        nx |= pte.nx();
        writable &= pte.writable();
        let is_leaf = level == 0 || (pte.huge() && (level == 1 || level == 2));
        if is_leaf {
            let page = match level {
                0 => PageSize::Size4K,
                1 => PageSize::Size2M,
                _ => PageSize::Size1G,
            };
            let mask = page.bytes() - 1;
            let pa_base = PhysAddr(pte.addr().as_u64() & !mask);
            return Ok(Translation {
                pa: PhysAddr(pa_base.as_u64() | (va.as_u64() & mask)),
                page,
                va_base: VirtAddr(va.as_u64() & !mask),
                pa_base,
                nx,
                writable,
                isa_tag: pte.isa_tag(),
                levels: loads,
            });
        }
        table = pte.addr();
    }
    // Level 0 entries are always leaves, so the loop cannot fall
    // through — but a typed error beats `unreachable!` if that
    // invariant ever breaks under corruption.
    Err(WalkError::CorruptEntry { level: 0, va })
}

/// Allocates physical frames for page tables (and anything else the OS
/// model needs) by bumping through a reserved range of host DRAM.
///
/// # Examples
///
/// ```
/// use flick_mem::PhysAddr;
/// use flick_paging::BumpFrameAlloc;
///
/// let mut a = BumpFrameAlloc::new(PhysAddr(0x1000), PhysAddr(0x4000));
/// assert_eq!(a.alloc_frame(), PhysAddr(0x1000));
/// assert_eq!(a.alloc_frame(), PhysAddr(0x2000));
/// assert_eq!(a.remaining_frames(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BumpFrameAlloc {
    next: PhysAddr,
    end: PhysAddr,
}

impl BumpFrameAlloc {
    /// Creates an allocator over `[start, end)`; both must be 4 KiB
    /// aligned.
    ///
    /// # Panics
    ///
    /// Panics on misaligned bounds or an empty range.
    pub fn new(start: PhysAddr, end: PhysAddr) -> Self {
        assert!(start.is_aligned(PAGE_SIZE) && end.is_aligned(PAGE_SIZE));
        assert!(start < end, "empty frame range");
        BumpFrameAlloc { next: start, end }
    }

    /// Allocates one zeroed-by-convention 4 KiB frame.
    ///
    /// # Panics
    ///
    /// Panics when the range is exhausted.
    pub fn alloc_frame(&mut self) -> PhysAddr {
        assert!(self.next < self.end, "frame allocator exhausted");
        let f = self.next;
        self.next += PAGE_SIZE;
        f
    }

    /// Allocates `n` physically contiguous frames and returns the base.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `n` frames remain.
    pub fn alloc_contiguous(&mut self, n: u64) -> PhysAddr {
        assert!(
            self.next.as_u64() + n * PAGE_SIZE <= self.end.as_u64(),
            "frame allocator exhausted"
        );
        let f = self.next;
        self.next += n * PAGE_SIZE;
        f
    }

    /// Frames still available.
    pub fn remaining_frames(&self) -> u64 {
        (self.end - self.next) / PAGE_SIZE
    }
}

/// Errors from address-space manipulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The virtual or physical address is not aligned to the page size.
    Misaligned,
    /// The mapping would replace an existing leaf.
    AlreadyMapped(VirtAddr),
    /// `protect` hit a non-present page.
    NotMapped(VirtAddr),
    /// `protect` range partially covers a huge page.
    SplitsHugePage(VirtAddr),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Misaligned => write!(f, "address not aligned to page size"),
            MapError::AlreadyMapped(va) => write!(f, "{va} is already mapped"),
            MapError::NotMapped(va) => write!(f, "{va} is not mapped"),
            MapError::SplitsHugePage(va) => write!(f, "range splits huge page at {va}"),
        }
    }
}

impl Error for MapError {}

/// A process address space: a CR3 root plus construction helpers.
///
/// Tables are stored *in simulated host DRAM* ([`PhysMem`]), exactly as on
/// the prototype — which is why the NxP's TLB misses are expensive: its
/// MMU must read these very bytes across PCIe.
#[derive(Clone, Copy, Debug)]
pub struct AddressSpace {
    cr3: PhysAddr,
}

impl AddressSpace {
    /// Allocates an empty PML4 and wraps it.
    pub fn new(mem: &mut PhysMem, alloc: &mut BumpFrameAlloc) -> Self {
        let cr3 = alloc.alloc_frame();
        mem.fill(cr3, PAGE_SIZE, 0);
        AddressSpace { cr3 }
    }

    /// Adopts an existing root (used when switching to a saved CR3).
    pub fn from_cr3(cr3: PhysAddr) -> Self {
        AddressSpace { cr3 }
    }

    /// The page-table base register value (what x86 calls CR3).
    pub fn cr3(&self) -> PhysAddr {
        self.cr3
    }

    /// Maps one page of the given size.
    ///
    /// # Errors
    ///
    /// [`MapError::Misaligned`] for unaligned addresses,
    /// [`MapError::AlreadyMapped`] if a leaf already exists.
    pub fn map(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BumpFrameAlloc,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        fl: u64,
    ) -> Result<(), MapError> {
        if !va.is_aligned(size.bytes()) || !pa.is_aligned(size.bytes()) {
            return Err(MapError::Misaligned);
        }
        let leaf_level = size.leaf_level();
        let table = self.leaf_table(mem, alloc, va, leaf_level)?;
        let slot = PhysAddr(table.as_u64() + va.pt_index(leaf_level) as u64 * 8);
        if Pte(mem.read_u64(slot)).present() {
            return Err(MapError::AlreadyMapped(va));
        }
        let leaf_fl = if leaf_level > 0 { fl | flags::HUGE } else { fl };
        mem.write_u64(slot, Pte::new(pa, leaf_fl).bits());
        Ok(())
    }

    /// Walks (allocating tables as needed) down to the table that holds
    /// `va`'s leaf entry at `leaf_level`, returning the table base.
    fn leaf_table(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BumpFrameAlloc,
        va: VirtAddr,
        leaf_level: u8,
    ) -> Result<PhysAddr, MapError> {
        let mut table = self.cr3;
        for level in (leaf_level + 1..=3).rev() {
            let slot = PhysAddr(table.as_u64() + va.pt_index(level) as u64 * 8);
            let pte = Pte(mem.read_u64(slot));
            if pte.present() {
                if pte.huge() {
                    return Err(MapError::AlreadyMapped(va));
                }
                table = pte.addr();
            } else {
                let new = alloc.alloc_frame();
                mem.fill(new, PAGE_SIZE, 0);
                // Intermediate entries are maximally permissive; leaves
                // decide effective permissions (Linux convention).
                mem.write_u64(
                    slot,
                    Pte::new(new, flags::PRESENT | flags::WRITABLE | flags::USER).bits(),
                );
                table = new;
            }
        }
        Ok(table)
    }

    /// Maps a contiguous `[va, va+len)` → `[pa, pa+len)` range with 4 KiB
    /// pages.
    ///
    /// One leaf table serves 512 consecutive 4 KiB pages, so the walk
    /// from CR3 is resolved once per 2 MiB block instead of once per
    /// page, and the block's whole PTE run is read, checked and written
    /// back as one slice (two `PhysMem` accesses per block instead of
    /// two per page). The tables and PTEs written are byte-identical to
    /// mapping each page individually — including on error, where every
    /// page before the colliding one stays mapped; multi-MiB loader
    /// mappings (stacks, BAR windows) just stop paying per-page
    /// `PhysMem` tolls to rediscover the same table.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] from individual page mappings.
    pub fn map_range(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut BumpFrameAlloc,
        va: VirtAddr,
        pa: PhysAddr,
        len: u64,
        fl: u64,
    ) -> Result<(), MapError> {
        if !va.is_aligned(PAGE_SIZE) || !pa.is_aligned(PAGE_SIZE) {
            return Err(MapError::Misaligned);
        }
        const ENTRIES: u64 = PAGE_SIZE / 8;
        let pages = len.div_ceil(PAGE_SIZE);
        let mut i = 0u64;
        while i < pages {
            let v = va + i * PAGE_SIZE;
            let table = self.leaf_table(mem, alloc, v, 0)?;
            let first = v.pt_index(0) as u64;
            let run = (ENTRIES - first).min(pages - i);
            let base = PhysAddr(table.as_u64() + first * 8);
            let mut buf = [0u8; PAGE_SIZE as usize];
            let bytes = (run * 8) as usize;
            mem.read_bytes(base, &mut buf[..bytes]);
            for k in 0..run {
                let off = (k * 8) as usize;
                let old = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                if Pte(old).present() {
                    // Keep the partially-mapped state identical to
                    // page-at-a-time mapping: everything before the
                    // collision lands, nothing after.
                    mem.write_bytes(base, &buf[..off]);
                    return Err(MapError::AlreadyMapped(v + k * PAGE_SIZE));
                }
                let p = pa + (i + k) * PAGE_SIZE;
                buf[off..off + 8].copy_from_slice(&Pte::new(p, fl).bits().to_le_bytes());
            }
            mem.write_bytes(base, &buf[..bytes]);
            i += run;
        }
        Ok(())
    }

    /// Finds the leaf PTE slot for `va`, if mapped. Returns `None` for
    /// unmapped addresses *and* for malformed tables (PS bit in a PML4
    /// entry), so `protect` reports [`MapError::NotMapped`] on a
    /// corrupted subtree rather than aborting.
    fn leaf_slot(&self, mem: &PhysMem, va: VirtAddr) -> Option<(PhysAddr, PageSize)> {
        let mut table = self.cr3;
        for level in (0..=3u8).rev() {
            let slot = PhysAddr(table.as_u64() + va.pt_index(level) as u64 * 8);
            let pte = Pte(mem.read_u64(slot));
            if !pte.present() {
                return None;
            }
            if level == 3 && pte.huge() {
                return None;
            }
            let is_leaf = level == 0 || (pte.huge() && level <= 2);
            if is_leaf {
                let size = match level {
                    0 => PageSize::Size4K,
                    1 => PageSize::Size2M,
                    _ => PageSize::Size1G,
                };
                return Some((slot, size));
            }
            table = pte.addr();
        }
        None
    }

    /// The `mprotect`-style primitive Flick's loader uses: sets or clears
    /// flag bits on every leaf covering `[va, va+len)`.
    ///
    /// This models the paper's *extended `mprotect()`* (§IV-C3), which the
    /// multi-ISA loader calls to set the NX bit on `.text.riscv` pages.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if part of the range has no translation;
    /// [`MapError::SplitsHugePage`] if the range does not cover an entire
    /// huge page it touches.
    pub fn protect(
        &mut self,
        mem: &mut PhysMem,
        va: VirtAddr,
        len: u64,
        set: u64,
        clear: u64,
    ) -> Result<(), MapError> {
        let mut cur = va.page_base();
        let end = VirtAddr(va.as_u64() + len).page_align_up();
        while cur < end {
            let (slot, size) = self.leaf_slot(mem, cur).ok_or(MapError::NotMapped(cur))?;
            let page_base = VirtAddr(cur.as_u64() & !(size.bytes() - 1));
            if (page_base < va.page_base()
                || page_base.as_u64() + size.bytes() > end.as_u64())
                && size != PageSize::Size4K
            {
                return Err(MapError::SplitsHugePage(cur));
            }
            let pte = Pte(mem.read_u64(slot));
            mem.write_u64(slot, (pte.bits() | set) & !clear);
            cur = VirtAddr(page_base.as_u64() + size.bytes());
        }
        Ok(())
    }

    /// Convenience: translation through this space with plain reads (host
    /// walker; no latency accounting).
    ///
    /// # Errors
    ///
    /// Propagates [`WalkError`] from the walk.
    pub fn translate(&self, mem: &PhysMem, va: VirtAddr) -> Result<Translation, WalkError> {
        walk(|a| mem.read_u64(a), self.cr3, va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, BumpFrameAlloc) {
        (
            PhysMem::new(),
            BumpFrameAlloc::new(PhysAddr(0x100_0000), PhysAddr(0x200_0000)),
        )
    }

    #[test]
    fn map_and_walk_4k() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        asp.map(
            &mut mem,
            &mut alloc,
            VirtAddr(0x40_0000),
            PhysAddr(0x7000),
            PageSize::Size4K,
            flags::PRESENT | flags::WRITABLE | flags::USER,
        )
        .unwrap();
        let t = asp.translate(&mem, VirtAddr(0x40_0ABC)).unwrap();
        assert_eq!(t.pa, PhysAddr(0x7ABC));
        assert_eq!(t.page, PageSize::Size4K);
        assert_eq!(t.levels, 4);
        assert!(!t.nx);
        assert!(t.writable);
    }

    #[test]
    fn walk_2m_huge_page() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        asp.map(
            &mut mem,
            &mut alloc,
            VirtAddr(0x20_0000),
            PhysAddr(0x20_0000),
            PageSize::Size2M,
            flags::PRESENT | flags::WRITABLE | flags::USER,
        )
        .unwrap();
        let t = asp.translate(&mem, VirtAddr(0x20_1234)).unwrap();
        assert_eq!(t.pa, PhysAddr(0x20_1234));
        assert_eq!(t.page, PageSize::Size2M);
        assert_eq!(t.levels, 3);
    }

    #[test]
    fn walk_1g_huge_page_covers_nxp_storage() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        // Map the 4 GiB NxP window with four 1 GiB pages, as §V does.
        for i in 0..4u64 {
            asp.map(
                &mut mem,
                &mut alloc,
                VirtAddr(0x40_0000_0000 + i * (1 << 30)),
                PhysAddr(0x1_0000_0000 + i * (1 << 30)),
                PageSize::Size1G,
                flags::PRESENT | flags::WRITABLE | flags::USER,
            )
            .unwrap();
        }
        let t = asp
            .translate(&mem, VirtAddr(0x40_0000_0000 + 3 * (1 << 30) + 0x55))
            .unwrap();
        assert_eq!(t.pa, PhysAddr(0x1_0000_0000 + 3 * (1 << 30) + 0x55));
        assert_eq!(t.page, PageSize::Size1G);
        assert_eq!(t.levels, 2);
    }

    #[test]
    fn not_present_reports_level() {
        let (mut mem, mut alloc) = setup();
        let asp = AddressSpace::new(&mut mem, &mut alloc);
        match asp.translate(&mem, VirtAddr(0x1234_5000)) {
            Err(WalkError::NotPresent { level: 3, .. }) => {}
            other => panic!("expected PML4 miss, got {other:?}"),
        }
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        let fl = flags::PRESENT | flags::USER;
        asp.map(&mut mem, &mut alloc, VirtAddr(0x1000), PhysAddr(0x1000), PageSize::Size4K, fl)
            .unwrap();
        assert_eq!(
            asp.map(&mut mem, &mut alloc, VirtAddr(0x1000), PhysAddr(0x2000), PageSize::Size4K, fl),
            Err(MapError::AlreadyMapped(VirtAddr(0x1000)))
        );
    }

    #[test]
    fn misaligned_map_rejected() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        assert_eq!(
            asp.map(
                &mut mem,
                &mut alloc,
                VirtAddr(0x1008),
                PhysAddr(0x1000),
                PageSize::Size4K,
                flags::PRESENT
            ),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn protect_sets_and_clears_nx() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        let fl = flags::PRESENT | flags::USER;
        asp.map_range(&mut mem, &mut alloc, VirtAddr(0x8000), PhysAddr(0x8000), 0x3000, fl)
            .unwrap();
        // Set NX on the middle page only — the loader does exactly this
        // per-section operation for .text.riscv.
        asp.protect(&mut mem, VirtAddr(0x9000), 0x1000, flags::NX, 0).unwrap();
        assert!(!asp.translate(&mem, VirtAddr(0x8000)).unwrap().nx);
        assert!(asp.translate(&mem, VirtAddr(0x9000)).unwrap().nx);
        assert!(!asp.translate(&mem, VirtAddr(0xA000)).unwrap().nx);
        // And clear it back.
        asp.protect(&mut mem, VirtAddr(0x9000), 0x1000, 0, flags::NX).unwrap();
        assert!(!asp.translate(&mem, VirtAddr(0x9000)).unwrap().nx);
    }

    #[test]
    fn protect_sets_isa_tag_with_nx() {
        // The N-way loader's actual call shape: NX plus the text ISA's
        // tag in one protect, and both visible through the walker.
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        let fl = flags::PRESENT | flags::USER;
        asp.map_range(&mut mem, &mut alloc, VirtAddr(0x8000), PhysAddr(0x8000), 0x2000, fl)
            .unwrap();
        asp.protect(
            &mut mem,
            VirtAddr(0x9000),
            0x1000,
            flags::NX | flags::isa_tag_bits(3),
            0,
        )
        .unwrap();
        let t = asp.translate(&mem, VirtAddr(0x9000)).unwrap();
        assert!(t.nx);
        assert_eq!(t.isa_tag, 3);
        assert_eq!(asp.translate(&mem, VirtAddr(0x8000)).unwrap().isa_tag, 0);
        // Retagging: clear the old field, then set the new one (`protect`
        // applies `set` before `clear`, so one call cannot do both).
        asp.protect(&mut mem, VirtAddr(0x9000), 0x1000, 0, flags::ISA_TAG_MASK)
            .unwrap();
        asp.protect(&mut mem, VirtAddr(0x9000), 0x1000, flags::isa_tag_bits(1), 0)
            .unwrap();
        assert_eq!(asp.translate(&mem, VirtAddr(0x9000)).unwrap().isa_tag, 1);
    }

    #[test]
    fn protect_unmapped_errors() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        assert_eq!(
            asp.protect(&mut mem, VirtAddr(0x5000), 0x1000, flags::NX, 0),
            Err(MapError::NotMapped(VirtAddr(0x5000)))
        );
    }

    #[test]
    fn protect_partial_huge_page_errors() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        asp.map(
            &mut mem,
            &mut alloc,
            VirtAddr(0x20_0000),
            PhysAddr(0x20_0000),
            PageSize::Size2M,
            flags::PRESENT,
        )
        .unwrap();
        assert_eq!(
            asp.protect(&mut mem, VirtAddr(0x20_0000), 0x1000, flags::NX, 0),
            Err(MapError::SplitsHugePage(VirtAddr(0x20_0000)))
        );
    }

    #[test]
    fn nx_inherited_from_any_level() {
        // x86 semantics: XD on an upper-level entry poisons the subtree.
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        asp.map(
            &mut mem,
            &mut alloc,
            VirtAddr(0x1000),
            PhysAddr(0x1000),
            PageSize::Size4K,
            flags::PRESENT,
        )
        .unwrap();
        // Manually set NX on the PML4 entry.
        let slot = PhysAddr(asp.cr3().as_u64() + VirtAddr(0x1000).pt_index(3) as u64 * 8);
        let pte = mem.read_u64(slot);
        mem.write_u64(slot, pte | flags::NX);
        assert!(asp.translate(&mem, VirtAddr(0x1000)).unwrap().nx);
    }

    #[test]
    fn writable_requires_all_levels() {
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        asp.map(
            &mut mem,
            &mut alloc,
            VirtAddr(0x1000),
            PhysAddr(0x1000),
            PageSize::Size4K,
            flags::PRESENT | flags::WRITABLE,
        )
        .unwrap();
        // Clear WRITABLE on the PML4 entry; effective permission drops.
        let slot = PhysAddr(asp.cr3().as_u64() + VirtAddr(0x1000).pt_index(3) as u64 * 8);
        let pte = mem.read_u64(slot);
        mem.write_u64(slot, pte & !flags::WRITABLE);
        assert!(!asp.translate(&mem, VirtAddr(0x1000)).unwrap().writable);
    }

    #[test]
    fn corrupt_pml4_entry_degrades_to_typed_error() {
        // Regression for the `unreachable!` walk paths: a PML4 entry
        // with the reserved PS bit set (only possible via corruption)
        // must produce a typed error, not abort the simulator.
        let (mut mem, mut alloc) = setup();
        let mut asp = AddressSpace::new(&mut mem, &mut alloc);
        asp.map(
            &mut mem,
            &mut alloc,
            VirtAddr(0x1000),
            PhysAddr(0x1000),
            PageSize::Size4K,
            flags::PRESENT | flags::USER,
        )
        .unwrap();
        // Corrupt the PML4 entry: set the reserved huge bit.
        let slot = PhysAddr(asp.cr3().as_u64() + VirtAddr(0x1000).pt_index(3) as u64 * 8);
        let pte = mem.read_u64(slot);
        mem.write_u64(slot, pte | flags::HUGE);
        assert_eq!(
            asp.translate(&mem, VirtAddr(0x1000)),
            Err(WalkError::CorruptEntry { level: 3, va: VirtAddr(0x1000) })
        );
        // protect over the corrupted subtree degrades to NotMapped.
        assert_eq!(
            asp.protect(&mut mem, VirtAddr(0x1000), 0x1000, flags::NX, 0),
            Err(MapError::NotMapped(VirtAddr(0x1000)))
        );
        // Repairing the entry restores translation.
        mem.write_u64(slot, pte);
        assert!(asp.translate(&mem, VirtAddr(0x1000)).is_ok());
    }

    #[test]
    fn frame_alloc_exhaustion_panics() {
        let mut a = BumpFrameAlloc::new(PhysAddr(0x1000), PhysAddr(0x2000));
        a.alloc_frame();
        assert!(std::panic::catch_unwind(move || a.alloc_frame()).is_err());
    }

    #[test]
    fn contiguous_alloc_is_contiguous() {
        let mut a = BumpFrameAlloc::new(PhysAddr(0x1000), PhysAddr(0x10000));
        let base = a.alloc_contiguous(4);
        assert_eq!(base, PhysAddr(0x1000));
        assert_eq!(a.alloc_frame(), PhysAddr(0x5000));
    }
}
