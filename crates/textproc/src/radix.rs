//! Least-significant-digit radix sort of `u32` keys.
//!
//! A page's ≈850 hashed term-pair features, spread over 30 bits, are
//! cheaper to count into place than to compare: one pass builds the
//! digit histograms, then one scatter pass per digit of the bits that
//! are not the same in every key. Nothing is allocated once the
//! caller's second buffer has grown to the input's size.
//!
//! The histograms cost about a microsecond whatever the input's size, so
//! comparison wins below ≈200 keys. No page's pair keys are that few on
//! the benchmark's page sets; a page's link context, a few keys, is
//! sorted by comparison where it is counted.

/// Widest digit: a histogram of 1,024 counters stays in L1 beside the
/// keys of a page.
const MAX_DIGIT_BITS: u32 = 10;
const MAX_PASSES: usize = u32::BITS.div_ceil(MAX_DIGIT_BITS) as usize;

/// Sort `keys` ascending, with `swap` as the second buffer (its contents
/// are discarded; the two vectors may trade allocations).
///
/// Only the key bits that differ between keys are sorted on, in as few
/// digits of at most ten bits as cover them. Keys wider than two digits
/// — the 30 hash bits of pair features — are sorted on their upper two
/// digits first: hashed keys almost never share those bits, so an
/// insertion pass finishes the order, and only keys that make it shift
/// more than once per key on average get the last digit's pass.
pub fn sort(keys: &mut Vec<u32>, swap: &mut Vec<u32>) {
    if keys.len() < 2 {
        return;
    }
    let first = keys[0];
    let varying = keys.iter().fold(0, |v, &key| v | (key ^ first));
    if varying == 0 {
        return;
    }
    let low = varying.trailing_zeros();
    let width = u32::BITS - varying.leading_zeros() - low;
    let upper = 2 * MAX_DIGIT_BITS;
    if width > upper {
        by_digits(keys, swap, low + width - upper, upper);
        let budget = keys.len();
        if finish_by_insertion(keys, budget) {
            return;
        }
    }
    by_digits(keys, swap, low, width);
}

/// LSD passes over bits `low .. low + width` of `keys`.
fn by_digits(keys: &mut Vec<u32>, swap: &mut Vec<u32>, low: u32, width: u32) {
    let passes = width.div_ceil(MAX_DIGIT_BITS);
    let bits = width.div_ceil(passes);
    let buckets = 1usize << bits;
    let digit = |key: u32, pass: u32| ((key >> (low + pass * bits)) as usize) & (buckets - 1);

    let mut counts = [[0u32; 1 << MAX_DIGIT_BITS]; MAX_PASSES];
    for &key in keys.iter() {
        for (pass, histogram) in (0..passes).zip(&mut counts) {
            histogram[digit(key, pass)] += 1;
        }
    }
    swap.clear();
    swap.resize(keys.len(), 0);
    for (pass, histogram) in (0..passes).zip(&mut counts) {
        let mut next = 0u32;
        for count in &mut histogram[..buckets] {
            (*count, next) = (next, next + *count);
        }
        for &key in keys.iter() {
            let slot = &mut histogram[digit(key, pass)];
            swap[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(keys, swap);
    }
}

/// Insertion-sort the nearly sorted `keys`, giving up — with `keys`
/// still a permutation of themselves — once `budget` shifts are spent.
fn finish_by_insertion(keys: &mut [u32], mut budget: usize) -> bool {
    for i in 1..keys.len() {
        let key = keys[i];
        let mut hole = i;
        while hole > 0 && keys[hole - 1] > key {
            if budget == 0 {
                keys[hole] = key;
                return false;
            }
            keys[hole] = keys[hole - 1];
            hole -= 1;
            budget -= 1;
        }
        keys[hole] = key;
    }
    true
}
