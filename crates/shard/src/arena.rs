//! Bit-packed, double-buffered message arenas and halo buffers.
//!
//! The monolithic engine stores one `Option<(u32, M)>` per directed edge.
//! The sharded engine instead stores each message's packed form
//! ([`PackableMessage::pack`](lcl_local::packed::PackableMessage::pack))
//! in a fixed number of bits `W` (the run's resolved arena width), plus
//! one presence bit per slot. Validity-by-stamp is replaced by
//! validity-by-construction: a chunk's presence words are zeroed when the
//! chunk is stepped, and readers consult the per-chunk *stamp* (kept by
//! the store, outside the arena) to know whether the surviving presence
//! bits are one round old or stale.
//!
//! # Layout
//!
//! Slots are grouped by scheduling chunk, and every chunk's packed region
//! and presence region start on a fresh 64-bit word ([`ArenaLayout`]).
//! The padding buys race-freedom without `unsafe`: worker regions split at
//! chunk boundaries receive disjoint `&mut [u64]` word slices via
//! `split_at_mut`, exactly like the monolithic engine's slot arenas.
//! Within a chunk, slot `j` occupies bits `[j*W, (j+1)*W)` of the chunk's
//! packed region and presence bit `j` of its presence region. `W = 0` is
//! valid (presence-only arenas for `()`-message protocols).
//!
//! Halo buffers ([`HaloBuffers`]) use the degenerate layout: one region,
//! slot `i` at bits `[i*W, (i+1)*W)`, mirroring the shard's sorted cut-edge
//! list.

use crate::partition::ChunkMeta;
use std::ops::Range;

/// Word-aligned bit layout of one shard's packed arena for a given width.
///
/// Pure geometry over the shard's chunk list; computed once per run and
/// never spilled (spill files carry only the word vectors).
#[derive(Debug, Clone)]
pub struct ArenaLayout {
    /// Arena width in bits per slot (`0..=128`).
    pub width: u32,
    /// Per-chunk packed-word prefix sums; `word_base[c]..word_base[c + 1]`
    /// is chunk `c`'s packed region. Length `chunks + 1`.
    word_base: Vec<usize>,
    /// Per-chunk presence-word prefix sums, same shape.
    pres_base: Vec<usize>,
}

impl ArenaLayout {
    /// Computes the layout of a shard with the given chunks at `width`
    /// bits per slot.
    ///
    /// # Panics
    ///
    /// Panics if `width > 128`.
    #[must_use]
    pub fn new(chunks: &[ChunkMeta], width: u32) -> Self {
        assert!(width <= 128, "packed width is capped at 128 bits");
        let mut word_base = Vec::with_capacity(chunks.len() + 1);
        let mut pres_base = Vec::with_capacity(chunks.len() + 1);
        let (mut words, mut pres) = (0usize, 0usize);
        word_base.push(0);
        pres_base.push(0);
        for cm in chunks {
            words += (cm.slots * width as usize).div_ceil(64);
            pres += cm.slots.div_ceil(64);
            word_base.push(words);
            pres_base.push(pres);
        }
        ArenaLayout {
            width,
            word_base,
            pres_base,
        }
    }

    /// Total packed words of the arena (one parity).
    #[must_use]
    pub fn packed_words(&self) -> usize {
        *self.word_base.last().unwrap_or(&0)
    }

    /// Total presence words of the arena (one parity).
    #[must_use]
    pub fn pres_words(&self) -> usize {
        *self.pres_base.last().unwrap_or(&0)
    }

    /// Packed-word range of chunk `c`.
    #[must_use]
    pub fn word_range(&self, c: usize) -> Range<usize> {
        self.word_base[c]..self.word_base[c + 1]
    }

    /// Presence-word range of chunk `c`.
    #[must_use]
    pub fn pres_range(&self, c: usize) -> Range<usize> {
        self.pres_base[c]..self.pres_base[c + 1]
    }

    /// Packed-word range of the chunk span `c0..c1` (for worker regions).
    #[must_use]
    pub fn word_span(&self, c0: usize, c1: usize) -> Range<usize> {
        self.word_base[c0]..self.word_base[c1]
    }

    /// Presence-word range of the chunk span `c0..c1`.
    #[must_use]
    pub fn pres_span(&self, c0: usize, c1: usize) -> Range<usize> {
        self.pres_base[c0]..self.pres_base[c1]
    }

    /// Bytes of one full double-buffered arena in this layout.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        2 * 8 * (self.packed_words() + self.pres_words()) as u64
    }
}

/// The low `bits` bits set (`bits <= 64`).
fn mask64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The low `bits` bits set (`bits <= 128`).
fn mask128(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// Writes the low `width` bits of `value` at bit offset `bit_lo` of
/// `words`, little-endian within and across words.
///
/// # Panics
///
/// Panics (by slice indexing) if the bit range exceeds `words`.
pub fn set_bits(words: &mut [u64], bit_lo: usize, width: u32, value: u128) {
    let mut w = bit_lo / 64;
    let mut o = (bit_lo % 64) as u32;
    let mut rem = width;
    let mut val = value;
    while rem > 0 {
        let take = rem.min(64 - o);
        let piece = (val & mask128(take)) as u64;
        words[w] = (words[w] & !(mask64(take) << o)) | (piece << o);
        val >>= take;
        rem -= take;
        w += 1;
        o = 0;
    }
}

/// Reads `width` bits at bit offset `bit_lo` of `words`; inverse of
/// [`set_bits`]. `width = 0` reads `0`.
#[must_use]
pub fn get_bits(words: &[u64], bit_lo: usize, width: u32) -> u128 {
    let mut w = bit_lo / 64;
    let mut o = (bit_lo % 64) as u32;
    let mut got = 0u32;
    let mut out = 0u128;
    while got < width {
        let take = (width - got).min(64 - o);
        let piece = u128::from(words[w] >> o) & mask128(take);
        out |= piece << got;
        got += take;
        w += 1;
        o = 0;
    }
    out
}

/// Sets presence bit `idx`.
pub fn set_present(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1u64 << (idx % 64);
}

/// Reads presence bit `idx`.
#[must_use]
pub fn is_present(words: &[u64], idx: usize) -> bool {
    words[idx / 64] >> (idx % 64) & 1 != 0
}

/// One shard's double-buffered packed arena: packed payload words and
/// presence words, one vector of each per parity. Spillable as four plain
/// word sections in a fixed order (packed 0, packed 1, present 0,
/// present 1).
#[derive(Debug)]
pub struct PackedArena {
    /// Packed payload words by parity.
    pub packed: [Vec<u64>; 2],
    /// Presence words by parity.
    pub present: [Vec<u64>; 2],
}

impl PackedArena {
    /// An all-zero (empty, nothing present) arena in `layout`.
    #[must_use]
    pub fn zeroed(layout: &ArenaLayout) -> Self {
        PackedArena {
            packed: [
                vec![0; layout.packed_words()],
                vec![0; layout.packed_words()],
            ],
            present: [vec![0; layout.pres_words()], vec![0; layout.pres_words()]],
        }
    }

    /// Splits into the write-parity mutable halves and read-parity shared
    /// halves for round parity `wp`:
    /// `(packed_write, present_write, packed_read, present_read)`.
    #[must_use]
    pub fn parity_mut(&mut self, wp: usize) -> (&mut [u64], &mut [u64], &[u64], &[u64]) {
        let [p0, p1] = &mut self.packed;
        let [q0, q1] = &mut self.present;
        if wp == 0 {
            (p0, q0, p1, q1)
        } else {
            (p1, q1, p0, q0)
        }
    }
}

/// One shard's RAM-resident halo buffer: the mirrored packed messages of
/// its reading cut edges, double-buffered by round parity like the arenas.
#[derive(Debug)]
pub struct HaloBuffers {
    /// Number of halo slots (= the shard's cut-edge count).
    pub len: usize,
    /// Arena width in bits per slot.
    pub width: u32,
    /// Packed payload words by parity.
    pub packed: [Vec<u64>; 2],
    /// Presence words by parity.
    pub present: [Vec<u64>; 2],
}

impl HaloBuffers {
    /// An all-zero halo buffer for `len` cut edges at `width` bits.
    #[must_use]
    pub fn zeroed(len: usize, width: u32) -> Self {
        let words = (len * width as usize).div_ceil(64);
        let pres = len.div_ceil(64);
        HaloBuffers {
            len,
            width,
            packed: [vec![0; words], vec![0; words]],
            present: [vec![0; pres], vec![0; pres]],
        }
    }

    /// Mirrors halo slot `idx` of parity `p`: packed `bits`, or no
    /// message.
    pub fn put(&mut self, p: usize, idx: usize, bits: Option<u128>) {
        match bits {
            Some(bits) => {
                set_present(&mut self.present[p], idx);
                set_bits(
                    &mut self.packed[p],
                    idx * self.width as usize,
                    self.width,
                    bits,
                );
            }
            None => self.present[p][idx / 64] &= !(1u64 << (idx % 64)),
        }
    }

    /// Reads halo slot `idx` of parity `p`, if present.
    #[must_use]
    pub fn get(&self, p: usize, idx: usize) -> Option<u128> {
        is_present(&self.present[p], idx)
            .then(|| get_bits(&self.packed[p], idx * self.width as usize, self.width))
    }

    /// Bytes of the full double-buffered halo buffer.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        2 * 8 * (self.packed[0].len() + self.present[0].len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks_of(slot_counts: &[usize]) -> Vec<ChunkMeta> {
        let mut base = 0;
        slot_counts
            .iter()
            .map(|&s| {
                let cm = ChunkMeta {
                    slot_base: base,
                    slots: s,
                };
                base += s;
                cm
            })
            .collect()
    }

    #[test]
    fn layout_pads_every_chunk_to_word_boundaries() {
        let layout = ArenaLayout::new(&chunks_of(&[3, 1, 130]), 7);
        // 3*7=21 bits -> 1 word; 1*7 -> 1 word; 130*7=910 -> 15 words.
        assert_eq!(layout.word_range(0), 0..1);
        assert_eq!(layout.word_range(1), 1..2);
        assert_eq!(layout.word_range(2), 2..17);
        assert_eq!(layout.packed_words(), 17);
        // presence: ceil(3/64)=1, 1, ceil(130/64)=3.
        assert_eq!(layout.pres_range(2), 2..5);
        assert_eq!(layout.pres_words(), 5);
    }

    #[test]
    fn zero_width_layout_has_presence_only() {
        let layout = ArenaLayout::new(&chunks_of(&[100]), 0);
        assert_eq!(layout.packed_words(), 0);
        assert_eq!(layout.pres_words(), 2);
        let words: Vec<u64> = vec![];
        assert_eq!(get_bits(&words, 0, 0), 0);
    }

    #[test]
    fn bits_round_trip_across_word_boundaries() {
        for width in [1u32, 7, 31, 63, 64, 65, 100, 127, 128] {
            let slots = 40;
            let mut words = vec![0u64; (slots * width as usize).div_ceil(64)];
            let val =
                |j: usize| (0x9E37_79B9_7F4A_7C15u128.wrapping_mul(j as u128 + 1)) & mask128(width);
            for j in 0..slots {
                set_bits(&mut words, j * width as usize, width, val(j));
            }
            for j in 0..slots {
                assert_eq!(
                    get_bits(&words, j * width as usize, width),
                    val(j),
                    "slot {j} width {width}"
                );
            }
            // Overwrites don't bleed into neighbors.
            set_bits(&mut words, 3 * width as usize, width, 0);
            assert_eq!(get_bits(&words, 2 * width as usize, width), val(2));
            assert_eq!(get_bits(&words, 3 * width as usize, width), 0);
            assert_eq!(get_bits(&words, 4 * width as usize, width), val(4));
        }
    }

    #[test]
    fn presence_bits_are_independent() {
        let mut words = vec![0u64; 3];
        set_present(&mut words, 0);
        set_present(&mut words, 63);
        set_present(&mut words, 64);
        set_present(&mut words, 150);
        for idx in 0..192 {
            assert_eq!(is_present(&words, idx), [0, 63, 64, 150].contains(&idx));
        }
    }

    #[test]
    fn halo_put_get_round_trips() {
        let mut halo = HaloBuffers::zeroed(10, 65);
        assert_eq!(halo.get(0, 3), None);
        halo.put(0, 3, Some(1 << 64));
        halo.put(0, 9, Some(12345));
        assert_eq!(halo.get(0, 3), Some(1 << 64));
        assert_eq!(halo.get(0, 9), Some(12345));
        assert_eq!(halo.get(1, 3), None, "parities are independent");
        halo.put(0, 3, None);
        assert_eq!(halo.get(0, 3), None);
    }
}
