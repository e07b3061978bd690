//! Message priorities, including the kernel's bitvector priorities.
//!
//! The paper's queueing-strategy experiments showed that speculative
//! parallel search (branch & bound, IDA*) needs *prioritized* scheduling
//! to avoid exploding the search space. Two priority forms are provided,
//! matching the kernel:
//!
//! * **Integer priorities** — smaller value = more urgent.
//! * **Bitvector priorities** ([`BitPrio`]) — variable-length bit strings
//!   compared lexicographically as binary fractions (shorter strings are
//!   padded with zeros). Their power: a tree search can give every node a
//!   priority that is its *path* from the root, so the global scheduling
//!   order is exactly depth-first-leftmost over the whole distributed
//!   tree — impossible to express with fixed-width integers at depth.

use std::cmp::Ordering;
use std::fmt;

/// Priority attached to a message. `None` sorts after any explicit
/// priority of the same class; under FIFO/LIFO strategies priorities are
/// ignored entirely.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Priority {
    /// No particular urgency.
    #[default]
    None,
    /// Integer priority; smaller = more urgent.
    Int(i64),
    /// Bitvector priority; lexicographically smaller = more urgent.
    Bits(BitPrio),
}

impl Priority {
    /// Integer key for the integer-priority queue. `None` maps to 0 (the
    /// most common "default urgency" convention); bitvector priorities
    /// map to their first 63 bits so mixed programs still get a sensible
    /// order.
    pub fn int_key(&self) -> i64 {
        match self {
            Priority::None => 0,
            Priority::Int(v) => *v,
            Priority::Bits(b) => b.prefix_key() as i64,
        }
    }

    /// Bit key for the bitvector-priority queue. `None` and `Int` map to
    /// fixed-width encodings so mixed programs still get a total order.
    pub fn bit_key(&self) -> BitPrio {
        match self {
            Priority::None => BitPrio::root(),
            Priority::Int(v) => {
                let mut b = BitPrio::root();
                b.push_bits(int_bits(*v), 64);
                b
            }
            Priority::Bits(b) => b.clone(),
        }
    }

    /// Wire size of the priority (for the network cost model).
    pub fn wire_bytes(&self) -> u32 {
        match self {
            Priority::None => 1,
            Priority::Int(_) => 9,
            Priority::Bits(b) => 1 + 4 + b.bytes.as_slice().len() as u32,
        }
    }
}

/// Order-preserving 64-bit encoding of an integer priority: the bits
/// [`Priority::bit_key`] gives an `Int`.
pub(crate) fn int_bits(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// A variable-length bitvector priority: a binary fraction in `[0, 1)`,
/// most significant bit first. Smaller fraction = more urgent.
///
/// Storage is inline up to 128 bits — search-tree priorities are a few
/// bits per level, so real programs essentially never leave the stack —
/// and spills to the heap beyond that. Cloning an inline priority (the
/// hot path: every prioritized send clones) is a plain memcpy with no
/// allocation. Constructors append whole bytes with shifts, never one
/// bit at a time.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitPrio {
    bytes: PrioBytes,
    /// Number of valid bits; the byte storage holds `ceil(len/8)`
    /// bytes, padded with zero bits.
    len: u32,
}

/// Byte storage for [`BitPrio`]: a fixed inline buffer or a heap spill.
///
/// Canonical representation: `Inline` whenever the byte count fits,
/// `Heap` only beyond that. Growth is monotone and new bytes are zero,
/// so equal logical values always share a variant — the derived
/// `PartialEq`/`Hash` (which see the whole inline buffer, trailing
/// zeros included) therefore agree with slice equality.
#[derive(Clone, PartialEq, Eq, Hash)]
enum PrioBytes {
    Inline { n: u8, buf: [u8; Self::INLINE] },
    Heap(Vec<u8>),
}

impl PrioBytes {
    const INLINE: usize = 16;

    fn as_slice(&self) -> &[u8] {
        match self {
            PrioBytes::Inline { n, buf } => &buf[..*n as usize],
            PrioBytes::Heap(v) => v,
        }
    }

    /// Grow to `len` bytes (never shrinks) and return them; the new
    /// bytes are zero.
    fn grow_to(&mut self, len: usize) -> &mut [u8] {
        if let PrioBytes::Inline { n, buf } = self {
            if len > Self::INLINE {
                let mut v = Vec::with_capacity(len);
                v.extend_from_slice(&buf[..*n as usize]);
                *self = PrioBytes::Heap(v);
            }
        }
        match self {
            PrioBytes::Inline { n, buf } => {
                *n = (*n).max(len as u8);
                &mut buf[..*n as usize]
            }
            PrioBytes::Heap(v) => {
                if v.len() < len {
                    v.resize(len, 0);
                }
                v
            }
        }
    }

    /// The first [`Self::INLINE`] bytes as one big-endian integer,
    /// zero-padded.
    fn head(&self) -> u128 {
        match self {
            // Bytes past `n` are zero (see the canonical form above).
            PrioBytes::Inline { buf, .. } => u128::from_be_bytes(*buf),
            PrioBytes::Heap(v) => {
                u128::from_be_bytes(v[..Self::INLINE].try_into().expect("a spilled key is longer"))
            }
        }
    }
}

/// Compare two big-endian byte strings as binary fractions: the shorter
/// is padded with zeros.
fn cmp_padded(a: &[u8], b: &[u8]) -> Ordering {
    let common = a.len().min(b.len());
    a[..common].cmp(&b[..common]).then_with(|| {
        // All remaining bytes of the longer one are compared to zero
        // padding; any 1 bit makes it larger.
        let rest_a = a[common..].iter().any(|&x| x != 0);
        let rest_b = b[common..].iter().any(|&x| x != 0);
        rest_a.cmp(&rest_b)
    })
}

impl Default for PrioBytes {
    fn default() -> Self {
        PrioBytes::Inline {
            n: 0,
            buf: [0; Self::INLINE],
        }
    }
}

impl BitPrio {
    /// The empty bitvector — the highest possible priority (fraction 0
    /// with no refinement).
    pub fn root() -> BitPrio {
        BitPrio::default()
    }

    /// Number of bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True for the empty (root) priority.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` (0 = most significant).
    pub fn bit(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let byte = self.bytes.as_slice()[(i / 8) as usize];
        (byte >> (7 - (i % 8))) & 1 == 1
    }

    /// The `len` bits stored most significant first in `bytes`, which
    /// is `ceil(len / 8)` long; the padding bits of its last byte are
    /// dropped.
    pub(crate) fn from_bytes(bytes: &[u8], len: u32) -> BitPrio {
        debug_assert_eq!(bytes.len(), len.div_ceil(8) as usize);
        let mut p = BitPrio::root();
        let out = p.bytes.grow_to(bytes.len());
        out.copy_from_slice(bytes);
        if let Some(last) = out.last_mut().filter(|_| !len.is_multiple_of(8)) {
            *last &= 0xff << (8 - len % 8);
        }
        p.len = len;
        p
    }

    /// The bits as stored: most significant first, `ceil(len / 8)`
    /// bytes, zero-padded.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Append one bit in place.
    pub(crate) fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Append the low `width` bits of `value`, most significant first,
    /// a byte at a time: the shared step of every constructor.
    pub(crate) fn push_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64 && (width == 64 || value >> width == 0), "{value} in {width} bits");
        if width == 0 {
            return;
        }
        let (start, end) = (self.len, self.len + width);
        let first = (start / 8) as usize;
        let bytes = &mut self.bytes.grow_to(end.div_ceil(8) as usize)[first..];
        // `value` placed in a 128-bit window whose top byte is byte
        // `first`: its leading bit lands `start % 8` bits into it.
        let window = u128::from(value) << (128 - width - start % 8);
        for (i, b) in bytes.iter_mut().enumerate() {
            *b |= (window >> (120 - 8 * i)) as u8;
        }
        self.len = end;
    }

    /// Extend with one bit, returning the refined priority. Appending
    /// bits makes the priority *less* urgent or equal (it only adds to
    /// the fraction), so children of a search node never preempt an
    /// already-more-urgent sibling subtree.
    pub fn child_bit(&self, bit: bool) -> BitPrio {
        let mut out = self.clone();
        out.push_bit(bit);
        out
    }

    /// Extend with `width` bits encoding `value` (most significant bit
    /// first). This is how a search assigns child `k` of a node with
    /// branching factor `2^width` its position-in-tree priority.
    ///
    /// # Panics
    /// Panics if `value` does not fit in `width` bits or `width > 32`.
    pub fn child(&self, value: u32, width: u32) -> BitPrio {
        assert!(width <= 32, "width too large");
        assert!(
            width == 32 || value < (1u32 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut out = self.clone();
        out.push_bits(value.into(), width);
        out
    }

    /// Lexicographic encoding of a component path: each component is
    /// appended as a fixed 32-bit field, so comparing two encoded
    /// priorities is exactly comparing the component slices
    /// lexicographically (with a shorter path, being a zero-padded
    /// prefix, ordering equal-or-before its extensions). This is the
    /// encoding pipelined workloads use for `(stage, block)` ordering —
    /// and what apps should reach for instead of hand-packing widths.
    ///
    /// Hand-packed encodings (e.g. `tsp`'s 5-bit child ranks) remain
    /// valid and cheaper on the wire; `from_path` trades those bytes for
    /// not having to prove each component fits its width.
    pub fn from_path(path: &[u32]) -> BitPrio {
        let mut out = BitPrio::root();
        for &component in path {
            out.push_bits(component.into(), 32);
        }
        out
    }

    /// First stored byte, zero-padded: a coarse sort key, because
    /// priorities that compare equal always share it (trailing padding
    /// is all zeros) and a strictly greater first byte implies a
    /// strictly greater priority.
    pub fn radix_byte(&self) -> u8 {
        (self.head() >> 120) as u8
    }

    /// First 63 bits as an integer (for degraded ordering under the
    /// integer-priority queue).
    pub fn prefix_key(&self) -> u64 {
        (self.head() >> 65) as u64
    }

    /// First 128 bits, zero-padded, as one integer: comparing heads
    /// orders two priorities unless they tie, and a tie is decided by
    /// the [`tail`](Self::tail)s.
    pub(crate) fn head(&self) -> u128 {
        self.bytes.head()
    }

    /// Whether bits lie beyond the [`head`](Self::head).
    pub(crate) fn has_tail(&self) -> bool {
        self.len > 128
    }

    /// Compare the bits beyond the head of `self` and `other`, as
    /// binary fractions.
    pub(crate) fn cmp_tail(&self, other: &Self) -> Ordering {
        cmp_padded(self.tail(), other.tail())
    }

    fn tail(&self) -> &[u8] {
        self.bytes.as_slice().get(PrioBytes::INLINE..).unwrap_or(&[])
    }
}

impl PartialOrd for BitPrio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitPrio {
    /// Binary-fraction comparison: compare bit by bit, treating the
    /// shorter vector as padded with zeros. A strict prefix therefore
    /// compares *equal or smaller*: a parent is never less urgent than
    /// its children.
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_padded(self.bytes.as_slice(), other.bytes.as_slice())
    }
}

impl fmt::Debug for BitPrio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0b")?;
        for i in 0..self.len {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_highest_priority() {
        let root = BitPrio::root();
        let child = root.child(3, 4);
        assert!(root <= child);
        assert!(root < child.child(0, 1).child(1, 1));
    }

    #[test]
    fn lexicographic_order() {
        let a = BitPrio::root().child(0b01, 2); // 0.01
        let b = BitPrio::root().child(0b10, 2); // 0.10
        assert!(a < b);
    }

    #[test]
    fn prefix_compares_equal_when_padding_is_zero() {
        let p = BitPrio::root().child(0b10, 2); // 0.10
        let q = p.child(0, 3); // 0.10000
        assert_eq!(p.cmp(&q), Ordering::Equal);
        let r = p.child(1, 3); // 0.10001
        assert!(p < r);
    }

    #[test]
    fn child_ordering_matches_value_order() {
        let parent = BitPrio::root().child(1, 2);
        let kids: Vec<BitPrio> = (0..8).map(|k| parent.child(k, 3)).collect();
        for w in kids.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Every child is >= parent.
        for k in &kids {
            assert!(parent <= *k);
        }
    }

    #[test]
    fn dfs_order_across_depths() {
        // Leftmost-deepest beats right siblings at any depth: the whole
        // subtree under child 0 is more urgent than child 1.
        let c0 = BitPrio::root().child(0, 1);
        let c1 = BitPrio::root().child(1, 1);
        let c0_deep = c0.child(7, 3).child(7, 3);
        assert!(c0_deep < c1);
    }

    #[test]
    fn bit_accessor() {
        let p = BitPrio::root().child(0b1011, 4);
        assert!(p.bit(0));
        assert!(!p.bit(1));
        assert!(p.bit(2));
        assert!(p.bit(3));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn crosses_byte_boundaries() {
        let mut p = BitPrio::root();
        for i in 0..20 {
            p = p.child_bit(i % 3 == 0);
        }
        assert_eq!(p.len(), 20);
        for i in 0..20 {
            assert_eq!(p.bit(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn heap_spill_preserves_order_and_bits() {
        // Push well past the 128-bit inline capacity and check the
        // spilled representation keeps every accessor and the ordering
        // consistent with a still-inline prefix.
        let mut p = BitPrio::root();
        for i in 0..300u32 {
            p = p.child_bit(i % 5 == 0);
        }
        assert_eq!(p.len(), 300);
        for i in 0..300 {
            assert_eq!(p.bit(i), i % 5 == 0, "bit {i}");
        }
        // A strict prefix (inline) compares <= the long (heap) value,
        // and flipping a late bit orders correctly across the spill.
        let prefix = {
            let mut q = BitPrio::root();
            for i in 0..100u32 {
                q = q.child_bit(i % 5 == 0);
            }
            q
        };
        assert!(prefix <= p);
        let bigger = p.child_bit(true);
        let same = p.child_bit(false);
        assert!(p < bigger);
        assert_eq!(p.cmp(&same), Ordering::Equal);
        assert_eq!(p.radix_byte(), prefix.radix_byte());
        // Wire size counts spilled bytes too.
        assert_eq!(Priority::Bits(p).wire_bytes(), 1 + 4 + 38);
    }

    #[test]
    fn inline_and_equalities_are_structural() {
        let a = BitPrio::root().child(0b101, 3);
        let b = BitPrio::root().child(0b101, 3);
        let padded = a.child(0, 2);
        assert_eq!(a, b);
        assert_ne!(a, padded, "structural equality distinguishes padding");
        assert_eq!(a.cmp(&padded), Ordering::Equal, "ordering treats padding as equal");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn child_value_must_fit() {
        let _ = BitPrio::root().child(8, 3);
    }

    #[test]
    fn int_key_ordering() {
        assert!(Priority::Int(-5).int_key() < Priority::Int(3).int_key());
        assert_eq!(Priority::None.int_key(), 0);
    }

    #[test]
    fn bit_key_for_ints_preserves_order() {
        let lo = Priority::Int(-100).bit_key();
        let mid = Priority::Int(0).bit_key();
        let hi = Priority::Int(100).bit_key();
        assert!(lo < mid);
        assert!(mid < hi);
    }

    #[test]
    fn wire_bytes_reasonable() {
        assert_eq!(Priority::None.wire_bytes(), 1);
        assert_eq!(Priority::Int(9).wire_bytes(), 9);
        let b = Priority::Bits(BitPrio::root().child(5, 9));
        assert_eq!(b.wire_bytes(), 1 + 4 + 2);
    }

    #[test]
    fn prefix_key_monotone_on_samples() {
        let ps = [
            BitPrio::root(),
            BitPrio::root().child(0, 2),
            BitPrio::root().child(1, 2),
            BitPrio::root().child(1, 2).child(3, 2),
            BitPrio::root().child(2, 2),
            BitPrio::root().child(3, 2),
        ];
        for w in ps.windows(2) {
            assert!(w[0].prefix_key() <= w[1].prefix_key());
        }
    }

    #[test]
    fn from_path_is_lexicographic() {
        let paths: [&[u32]; 6] = [
            &[],
            &[0],
            &[0, 5],
            &[1, 0],
            &[1, 2],
            &[2],
        ];
        let encoded: Vec<BitPrio> = paths.iter().map(|p| BitPrio::from_path(p)).collect();
        for i in 0..paths.len() {
            for j in 0..paths.len() {
                let want = paths[i].cmp(paths[j]);
                let got = encoded[i].cmp(&encoded[j]);
                // A strict prefix compares Less as a slice but Equal as
                // a zero-padded bitvector; everything else must agree.
                let prefix = paths[i].len() < paths[j].len()
                    && paths[j][..paths[i].len()] == *paths[i]
                    && paths[j][paths[i].len()..].iter().all(|&c| c == 0);
                let rev_prefix = paths[j].len() < paths[i].len()
                    && paths[i][..paths[j].len()] == *paths[j]
                    && paths[i][paths[j].len()..].iter().all(|&c| c == 0);
                if prefix || rev_prefix {
                    assert_eq!(got, Ordering::Equal, "{:?} vs {:?}", paths[i], paths[j]);
                } else {
                    assert_eq!(got, want, "{:?} vs {:?}", paths[i], paths[j]);
                }
            }
        }
    }

    #[test]
    fn from_path_matches_hand_packed_children() {
        let by_path = BitPrio::from_path(&[3, 17]);
        let by_hand = BitPrio::root().child(3, 32).child(17, 32);
        assert_eq!(by_path, by_hand);
        assert_eq!(by_path.len(), 64);
    }

    #[test]
    fn from_path_empty_is_root() {
        assert_eq!(BitPrio::from_path(&[]), BitPrio::root());
    }

    #[test]
    fn from_path_handles_full_width_components() {
        let lo = BitPrio::from_path(&[u32::MAX - 1]);
        let hi = BitPrio::from_path(&[u32::MAX]);
        assert!(lo < hi);
    }

    #[test]
    fn debug_format() {
        let p = BitPrio::root().child(0b101, 3);
        assert_eq!(format!("{p:?}"), "0b101");
    }
}
