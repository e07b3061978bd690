//! Property-based tests of bitvector priorities: total order axioms,
//! binary-fraction semantics, child-refinement laws.

use chare_kernel::priority::{BitPrio, Priority};
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_bits() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 0..40)
}

fn from_bits(bits: &[bool]) -> BitPrio {
    let mut p = BitPrio::root();
    for &b in bits {
        p = p.child_bit(b);
    }
    p
}

/// Reference semantics: a bitvector is the binary fraction
/// 0.b0 b1 b2 ... — compare by zero-extended lexicographic order.
fn model_cmp(a: &[bool], b: &[bool]) -> Ordering {
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(false);
        let y = b.get(i).copied().unwrap_or(false);
        match x.cmp(&y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

proptest! {
    #[test]
    fn cmp_matches_fraction_model(a in arb_bits(), b in arb_bits()) {
        let pa = from_bits(&a);
        let pb = from_bits(&b);
        prop_assert_eq!(pa.cmp(&pb), model_cmp(&a, &b));
    }

    #[test]
    fn cmp_is_antisymmetric(a in arb_bits(), b in arb_bits()) {
        let pa = from_bits(&a);
        let pb = from_bits(&b);
        prop_assert_eq!(pa.cmp(&pb), pb.cmp(&pa).reverse());
    }

    #[test]
    fn cmp_is_transitive(a in arb_bits(), b in arb_bits(), c in arb_bits()) {
        let (pa, pb, pc) = (from_bits(&a), from_bits(&b), from_bits(&c));
        if pa <= pb && pb <= pc {
            prop_assert!(pa <= pc);
        }
    }

    #[test]
    fn bits_roundtrip(a in arb_bits()) {
        let p = from_bits(&a);
        prop_assert_eq!(p.len() as usize, a.len());
        for (i, &b) in a.iter().enumerate() {
            prop_assert_eq!(p.bit(i as u32), b);
        }
    }

    /// A child is never more urgent than its parent (refinement only adds
    /// to the fraction), and children are ordered by their index.
    #[test]
    fn child_refinement_laws(a in arb_bits(), v in 0u32..256, w in 0u32..256) {
        let parent = from_bits(&a);
        let (lo, hi) = (v.min(w), v.max(w));
        let c_lo = parent.child(lo, 8);
        let c_hi = parent.child(hi, 8);
        prop_assert!(parent <= c_lo);
        prop_assert!(c_lo <= c_hi);
        if lo != hi {
            prop_assert!(c_lo < c_hi);
        }
    }

    /// Whole subtrees inherit the ordering of their roots: any descendant
    /// of child(v) precedes any descendant of child(w) when v < w.
    #[test]
    fn subtree_isolation(
        a in arb_bits(),
        v in 0u32..15,
        d1 in arb_bits(),
        d2 in arb_bits(),
    ) {
        let parent = from_bits(&a);
        let left = from_bits(&[&a[..], &to_bits(v, 4)].concat());
        let right = parent.child(v + 1, 4);
        // Arbitrary descendants of `left` and `right`.
        let mut ld = left;
        for &b in &d1 { ld = ld.child_bit(b); }
        let mut rd = right.clone();
        for &b in &d2 { rd = rd.child_bit(b); }
        prop_assert!(ld < rd, "descendant of child {v} must precede child {}", v + 1);
    }

    #[test]
    fn prefix_key_is_monotone(a in arb_bits(), b in arb_bits()) {
        let pa = from_bits(&a);
        let pb = from_bits(&b);
        if pa < pb {
            prop_assert!(pa.prefix_key() <= pb.prefix_key());
        }
    }

    #[test]
    fn int_bit_key_preserves_order(x in any::<i64>(), y in any::<i64>()) {
        let kx = Priority::Int(x).bit_key();
        let ky = Priority::Int(y).bit_key();
        prop_assert_eq!(kx.cmp(&ky), x.cmp(&y));
    }

    #[test]
    fn wire_bytes_positive(a in arb_bits()) {
        prop_assert!(Priority::Bits(from_bits(&a)).wire_bytes() >= 5);
    }
}

/// `p` holds exactly the bits `want`, read one at a time, and equals
/// the priority built from them one bit at a time.
fn holds(p: &BitPrio, want: &[bool]) {
    prop_assert_eq!(p.len() as usize, want.len());
    for (i, &b) in want.iter().enumerate() {
        prop_assert_eq!(p.bit(i as u32), b, "bit {}", i);
    }
    prop_assert_eq!(p, &from_bits(want));
}

/// The low `width` bits of an arbitrary value, as `child` takes them.
fn fit(v: u32, width: u32) -> u32 {
    if width == 32 { v } else { v & ((1 << width) - 1) }
}

proptest! {
    /// `child` appends whole bytes at once; it must append exactly the
    /// bits a bit-by-bit build would, from any prefix length, inline or
    /// spilled, across the 128-bit boundary.
    #[test]
    fn child_appends_what_a_bit_by_bit_build_does(
        prefix in proptest::collection::vec(any::<bool>(), 0..201),
        steps in proptest::collection::vec((any::<u32>(), 0u32..=32), 0..8),
    ) {
        let mut p = from_bits(&prefix);
        let mut want = prefix;
        for (v, width) in steps {
            let v = fit(v, width);
            p = p.child(v, width);
            want.extend(to_bits(v, width));
            holds(&p, &want);
            prop_assert_eq!(p.cmp(&from_bits(&want)), Ordering::Equal);
        }
    }

    /// `from_path` is 32 bits per component, most significant first.
    #[test]
    fn from_path_appends_what_a_bit_by_bit_build_does(
        path in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        let want: Vec<bool> = path.iter().flat_map(|&c| to_bits(c, 32)).collect();
        holds(&BitPrio::from_path(&path), &want);
    }

    /// An integer's bit key is its sign-flipped two's complement, 64
    /// bits, most significant first.
    #[test]
    fn int_bit_key_is_the_biased_integer(x in any::<i64>()) {
        let biased = (x as u64) ^ (1 << 63);
        let want: Vec<bool> = (0..64).rev().map(|i| (biased >> i) & 1 == 1).collect();
        holds(&Priority::Int(x).bit_key(), &want);
    }
}

fn to_bits(v: u32, width: u32) -> Vec<bool> {
    (0..width).rev().map(|i| (v >> i) & 1 == 1).collect()
}
