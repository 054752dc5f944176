//! The memory behind a pool: mapped the way a DAX device is mapped.
//!
//! The paper's PMTables live in Optane mapped with `mmap` over a DAX
//! filesystem, which Linux backs with 2 MiB pages wherever the mapping is
//! 2 MiB-aligned. [`Mapping`] reproduces that on Linux: one private
//! anonymous mapping whose base is 2 MiB-aligned (the capacity plus 2 MiB
//! is mapped and the unaligned head and tail are unmapped again), marked
//! `MADV_HUGEPAGE` and pre-faulted once with `MADV_POPULATE_WRITE` (one
//! write per page where the kernel refuses it). The populated prefix —
//! the whole pool unless the caller asks for less — is resident and zero
//! when `new` returns, as it was with a zeroed heap block, so the measured
//! phase takes no page faults there; what changes is that it is faulted in
//! 2 MiB at a time and every later access walks a 2 MiB page. The rest
//! reads zero too and is faulted in, huge pages still, on first use.
//!
//! When transparent huge pages are off (`never`) the same mapping is
//! simply served with 4 KiB pages. Elsewhere (other operating systems,
//! Linux architectures whose constants are not declared here) the pool is
//! a zeroed, 64-byte-aligned heap block as before, and
//! [`Mapping::huge_page_bytes`] reads 0.

pub(crate) use imp::Mapping;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::ffi::c_void;
    use std::io::{BufRead, BufReader};
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    // The generic Linux values, shared by x86_64 and aarch64.
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    const MADV_HUGEPAGE: i32 = 14;
    const MADV_POPULATE_WRITE: i32 = 23;
    const SC_PAGESIZE: i32 = 30;

    /// The PMD page size the base is aligned to.
    const HUGE_PAGE: usize = 2 << 20;

    /// One anonymous mapping of `len` bytes at a 2 MiB-aligned `base`.
    pub(crate) struct Mapping {
        base: NonNull<u8>,
        /// Mapped bytes: the capacity rounded up to a whole base page.
        len: usize,
    }

    impl Mapping {
        /// Maps and aligns at least `capacity` zeroed bytes and pre-faults
        /// the first `populate` of them; `None` if the address space is
        /// exhausted.
        pub(crate) fn new(capacity: usize, populate: usize) -> Option<Mapping> {
            // SAFETY: sysconf has no preconditions.
            let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) })
                .ok()
                .filter(|p| p.is_power_of_two())
                .unwrap_or(4096);
            let len = capacity.checked_next_multiple_of(page)?;
            let span = len.checked_add(HUGE_PAGE)?;
            // SAFETY: a fresh private anonymous mapping aliases nothing.
            let raw = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    span,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if raw == MAP_FAILED {
                return None;
            }
            let raw = raw as usize;
            let base = raw.next_multiple_of(HUGE_PAGE);
            let (head, tail) = (base - raw, raw + span - (base + len));
            // SAFETY: both trims lie inside the mapping just made and are
            // page-aligned (`raw`, `base` and `len` all are); nothing points
            // into them. Unmapping part of a fresh mapping cannot fail.
            unsafe {
                if head > 0 {
                    munmap(raw as *mut c_void, head);
                }
                if tail > 0 {
                    munmap((base + len) as *mut c_void, tail);
                }
            }
            let mapping = Mapping {
                base: NonNull::new(base as *mut u8)?,
                len,
            };
            let populate = populate.checked_next_multiple_of(page)?.min(len);
            mapping.prefault(page, populate);
            Some(mapping)
        }

        /// Asks for huge pages over the whole mapping and faults each page
        /// of its first `populate` bytes in once. Refusals are not errors:
        /// without THP the mapping keeps its base pages, and without
        /// `MADV_POPULATE_WRITE` (before Linux 5.14) one write per page
        /// faults them in instead.
        fn prefault(&self, page: usize, populate: usize) {
            let base = self.base.as_ptr();
            // SAFETY: advice over ranges this mapping owns.
            unsafe {
                madvise(base.cast(), self.len, MADV_HUGEPAGE);
                if populate == 0 || madvise(base.cast(), populate, MADV_POPULATE_WRITE) == 0 {
                    return;
                }
            }
            for off in (0..populate).step_by(page) {
                // SAFETY: in range; the page is fresh anonymous memory, so
                // writing the zero it already holds changes nothing.
                unsafe { base.add(off).write_volatile(0) };
            }
        }

        /// Start of the mapping.
        #[inline]
        pub(crate) fn base(&self) -> NonNull<u8> {
            self.base
        }

        /// Bytes of this mapping the kernel backs with transparent huge
        /// pages: the `AnonHugePages` of the `/proc/self/smaps` entries
        /// overlapping it. An entry the kernel merged with a neighbouring
        /// mapping counts whole, so the sum is capped at the mapping's
        /// length. 0 if smaps cannot be read.
        pub(crate) fn huge_page_bytes(&self) -> u64 {
            let Ok(file) = std::fs::File::open("/proc/self/smaps") else {
                return 0;
            };
            let (start, end) = (
                self.base.as_ptr() as usize,
                self.base.as_ptr() as usize + self.len,
            );
            let mut overlaps = false;
            let mut kib = 0u64;
            for line in BufReader::new(file).lines().map_while(|l| l.ok()) {
                if let Some((lo, hi)) = vma_range(&line) {
                    // Entries come in address order: stop at the first one
                    // past the mapping rather than have the kernel walk the
                    // rest of the address space.
                    if lo >= end {
                        break;
                    }
                    overlaps = hi > start;
                } else if overlaps {
                    if let Some(rest) = line.strip_prefix("AnonHugePages:") {
                        kib += rest
                            .trim()
                            .trim_end_matches("kB")
                            .trim()
                            .parse()
                            .unwrap_or(0);
                    }
                }
            }
            (kib * 1024).min(self.len as u64)
        }
    }

    /// The address range of an smaps entry header (`lo-hi perms …`).
    fn vma_range(line: &str) -> Option<(usize, usize)> {
        let (lo, rest) = line.split_once('-')?;
        let hi = rest.split(' ').next()?;
        Some((
            usize::from_str_radix(lo, 16).ok()?,
            usize::from_str_radix(hi, 16).ok()?,
        ))
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: exactly the range left mapped by `new`; the pool that
            // owns this mapping is gone, so nothing points into it.
            unsafe { munmap(self.base.as_ptr().cast(), self.len) };
        }
    }

    #[cfg(test)]
    mod tests {
        use super::vma_range;

        #[test]
        fn smaps_headers_parse_and_fields_do_not() {
            let header = "7f3a1c000000-7f3a1c200000 rw-p 00000000 00:00 0 ";
            assert_eq!(vma_range(header), Some((0x7f3a1c000000, 0x7f3a1c200000)));
            assert_eq!(vma_range("AnonHugePages:      2048 kB"), None);
            assert_eq!(vma_range("VmFlags: rd wr mr mw me ac sd hg"), None);
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::alloc::{alloc_zeroed, dealloc, Layout};
    use std::ptr::NonNull;

    /// A zeroed heap block: 64-byte aligned, faulted in by the allocator.
    pub(crate) struct Mapping {
        base: NonNull<u8>,
        layout: Layout,
    }

    impl Mapping {
        /// Allocates `capacity` zeroed bytes, all of them resident whatever
        /// `populate` asks; `None` if the allocation fails.
        pub(crate) fn new(capacity: usize, _populate: usize) -> Option<Mapping> {
            let layout = Layout::from_size_align(capacity, 64).ok()?;
            // SAFETY: the pool never asks for zero bytes.
            let base = NonNull::new(unsafe { alloc_zeroed(layout) })?;
            Some(Mapping { base, layout })
        }

        /// Start of the block.
        #[inline]
        pub(crate) fn base(&self) -> NonNull<u8> {
            self.base
        }

        /// Always 0: no huge-page mapping here.
        pub(crate) fn huge_page_bytes(&self) -> u64 {
            0
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: allocated in `new` with this layout.
            unsafe { dealloc(self.base.as_ptr(), self.layout) };
        }
    }
}
