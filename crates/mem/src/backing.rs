//! Sparse word-granularity backing store.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use vpsim_rng::U64Hasher;

use crate::Addr;

/// Size of one sparse page in the backing store (independent of the TLB
/// page size; chosen for allocation efficiency).
const PAGE_WORDS: usize = 512;
const PAGE_BYTES: u64 = (PAGE_WORDS * 8) as u64;

type Page = Box<[u64; PAGE_WORDS]>;

/// Sparse main-memory contents, 8-byte word granularity.
///
/// All simulator data accesses are 8-byte aligned words — attack programs
/// index arrays in multiples of 8 bytes, matching 64-bit loads in the
/// paper's PoCs. Unwritten memory reads as zero.
#[derive(Clone, Default)]
pub struct BackingStore {
    pages: HashMap<u64, Page, BuildHasherDefault<U64Hasher>>,
    /// Pages a [`reset`](BackingStore::reset) released, reused (zeroed)
    /// before a new one is allocated. Its capacity covers every page
    /// the store owns, so a reset never allocates.
    free: Vec<Page>,
}

/// The contents only: the free pages are not part of the store's value.
impl std::fmt::Debug for BackingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackingStore")
            .field("pages", &self.pages)
            .finish_non_exhaustive()
    }
}

impl BackingStore {
    /// An empty (all-zero) store.
    #[must_use]
    pub fn new() -> BackingStore {
        BackingStore::default()
    }

    fn split(addr: Addr) -> (u64, usize) {
        assert_eq!(addr % 8, 0, "unaligned 8-byte access at {addr:#x}");
        let page = addr / PAGE_BYTES;
        let word = ((addr % PAGE_BYTES) / 8) as usize;
        (page, word)
    }

    /// Read the 8-byte word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    #[must_use]
    pub fn read(&self, addr: Addr) -> u64 {
        let (page, word) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[word])
    }

    /// Write the 8-byte word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write(&mut self, addr: Addr, value: u64) {
        let (page, word) = Self::split(addr);
        let free = &mut self.free;
        let live = self.pages.len();
        self.pages.entry(page).or_insert_with(|| match free.pop() {
            Some(mut reused) => {
                reused.fill(0);
                reused
            }
            None => {
                // Room for every page owned once this one is: the live
                // ones, the free ones and this one.
                free.reserve(live + 1);
                Box::new([0; PAGE_WORDS])
            }
        })[word] = value;
    }

    /// Forget every word: the store reads all-zero again, as
    /// [`BackingStore::new`] builds it, in time proportional to the
    /// pages allocated. The pages are kept for reuse, so this allocates
    /// nothing.
    pub fn reset(&mut self) {
        self.free.extend(self.pages.drain().map(|(_, page)| page));
    }

    /// Number of sparse pages currently allocated (holding words since
    /// the last reset).
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }

    /// Copy a slice of words into memory starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 8-byte aligned.
    pub fn write_words(&mut self, base: Addr, words: &[u64]) {
        for (i, w) in words.iter().enumerate() {
            self.write(base + (i as u64) * 8, *w);
        }
    }

    /// Read `count` consecutive words starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 8-byte aligned.
    #[must_use]
    pub fn read_words(&self, base: Addr, count: usize) -> Vec<u64> {
        (0..count)
            .map(|i| self.read(base + (i as u64) * 8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = BackingStore::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(0xdead_b000), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = BackingStore::new();
        m.write(0x1000, 42);
        m.write(0x1008, 43);
        assert_eq!(m.read(0x1000), 42);
        assert_eq!(m.read(0x1008), 43);
        assert_eq!(m.read(0x1010), 0);
    }

    #[test]
    fn sparse_pages_allocated_lazily() {
        let mut m = BackingStore::new();
        assert_eq!(m.allocated_pages(), 0);
        m.write(0, 1);
        m.write(8, 2);
        assert_eq!(m.allocated_pages(), 1);
        m.write(1 << 30, 3);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let m = BackingStore::new();
        let _ = m.read(4);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        let mut m = BackingStore::new();
        m.write(0x1001, 0);
    }

    #[test]
    fn reset_forgets_every_page() {
        let mut m = BackingStore::new();
        m.write(0x1000, 5);
        m.write(1 << 30, 6);
        m.reset();
        assert_eq!(m.allocated_pages(), 0);
        assert_eq!(m.read(0x1000), 0);
        assert_eq!(m.read(1 << 30), 0);
    }

    #[test]
    fn a_reused_page_reads_zero_but_the_word_written() {
        let mut m = BackingStore::new();
        let (a, b) = (0x1000, 7 * PAGE_BYTES);
        for word in 0..PAGE_WORDS as u64 {
            m.write(a + 8 * word, word + 1);
        }
        m.reset();
        assert_eq!(m.allocated_pages(), 0);
        // Page B takes page A's released buffer.
        m.write(b + 8, 99);
        assert_eq!(m.allocated_pages(), 1);
        assert_eq!(m.read_words(b, PAGE_WORDS)[1], 99);
        for word in (0..PAGE_WORDS as u64).filter(|&w| w != 1) {
            assert_eq!(m.read(b + 8 * word), 0, "word {word} of the reused page");
        }
        assert_eq!(m.read(a), 0, "page A is forgotten");
        m.write(a, 5);
        assert_eq!(m.allocated_pages(), 2, "a second page is a new one");
        m.reset();
        let fresh = BackingStore::new();
        assert_eq!(
            format!("{m:?}"),
            format!("{fresh:?}"),
            "free pages stay out of Debug"
        );
    }

    #[test]
    fn bulk_words_roundtrip() {
        let mut m = BackingStore::new();
        let data = [1u64, 2, 3, 4, 5];
        m.write_words(0x4000, &data);
        assert_eq!(m.read_words(0x4000, 5), data.to_vec());
    }

    #[test]
    fn page_boundary_crossing_write() {
        let mut m = BackingStore::new();
        let boundary = PAGE_BYTES - 8;
        m.write(boundary, 7);
        m.write(boundary + 8, 8);
        assert_eq!(m.read(boundary), 7);
        assert_eq!(m.read(boundary + 8), 8);
        assert_eq!(m.allocated_pages(), 2);
    }
}
