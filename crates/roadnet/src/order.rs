//! Sort-free ordering of the small integer keys on the prepare path.
//!
//! Preparing a query orders three kinds of keys: the node and edge ids of the
//! `Q.Λ` view, and the `(node, object)` keys of the scoring hits.  All are
//! small integers, so none needs a comparison sort:
//!
//! * [`IdBand`] orders a list of `u32` ids by marking them in a bitmap over
//!   their id band `[min, max]` and reading the set bits back in order —
//!   O(len + (max − min)/64).  The generated networks number nearby nodes
//!   and edges close together, so a view's band is about an order of
//!   magnitude wider than its member list (an 82k-id node band for 6.9k
//!   members at `huge`, BENCH_scale.json): about a dozen bits per member.
//! * [`radix_sort_by_key`] is a stable LSD radix sort on a `u64` key, one
//!   byte per pass and only as many passes as the key *span* `max − min`
//!   has bytes.  Two stable passes over two keys give the lexicographic
//!   order, which is how scoring orders hits by `(node, object id)`.
//!
//! Both keep their buffers across calls, so a steady stream of queries
//! allocates nothing once the buffers have grown to size.

/// A reusable bitmap over an id band, ordering lists of `u32` ids.
///
/// Between calls every word is zero: reading the bits back clears them, so
/// a call touches only the words of its own band.
#[derive(Debug, Clone, Default)]
pub struct IdBand {
    words: Vec<u64>,
}

impl IdBand {
    /// Sorts `ids` ascending by `key` and drops repeated keys, keeping the
    /// buffer.  Costs O(len + (max − min)/64) time and one bit per id of the
    /// band `[min, max]`, which the bitmap keeps for the next call.
    pub fn sort_dedup<T: Copy + From<u32>>(&mut self, ids: &mut Vec<T>, key: impl Fn(T) -> u32) {
        let Some((min, max)) = ids.iter().fold(None, |acc, &id| {
            let k = key(id);
            Some(acc.map_or((k, k), |(lo, hi): (u32, u32)| (lo.min(k), hi.max(k))))
        }) else {
            return;
        };
        let len = ((max - min) >> 6) as usize + 1;
        if self.words.len() < len {
            self.words.resize(len, 0);
        }
        let words = &mut self.words[..len];
        for &id in ids.iter() {
            let slot = key(id) - min;
            words[(slot >> 6) as usize] |= 1 << (slot & 63);
        }
        ids.clear();
        for (i, word) in words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                // The slot is at most `max − min`, so `min + slot` cannot overflow.
                let slot = (i as u32) * 64 + bits.trailing_zeros();
                ids.push(T::from(min + slot));
                bits &= bits - 1;
            }
        }
    }
}

/// Stable LSD radix sort of `items` by `key`, with `spare` as the scatter
/// buffer (both keep their capacity).  Items with equal keys keep their
/// relative order, so sorting by a minor key and then by a major key yields
/// the lexicographic `(major, minor)` order.
///
/// Keys are rebased at their minimum and sorted one byte per pass, skipping
/// passes in which every item has the same digit: a key span of `b` bits
/// costs at most `⌈b/8⌉` passes of O(len + 256).
pub fn radix_sort_by_key<T: Copy>(items: &mut Vec<T>, spare: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let n = items.len();
    if n < 2 {
        return;
    }
    let (min, max) = items.iter().fold((u64::MAX, 0), |(lo, hi), item| {
        let k = key(item);
        (lo.min(k), hi.max(k))
    });
    let span = max - min;
    spare.clear();
    spare.resize(n, items[0]);
    for shift in (0..u64::BITS).step_by(8).take_while(|&s| span >> s != 0) {
        let digit = |item: &T| ((key(item) - min) >> shift) as usize & 0xff;
        let mut starts = [0usize; 256];
        for item in items.iter() {
            starts[digit(item)] += 1;
        }
        if starts.contains(&n) {
            continue; // one digit value only: the pass would not move anything
        }
        let mut sum = 0;
        for start in &mut starts {
            let count = *start;
            *start = sum;
            sum += count;
        }
        for item in items.iter() {
            let d = digit(item);
            spare[starts[d]] = *item;
            starts[d] += 1;
        }
        std::mem::swap(items, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random `u64`s (SplitMix64).
    fn splitmix(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    fn band_sorted(band: &mut IdBand, ids: &[u32]) -> Vec<u32> {
        let mut out = ids.to_vec();
        band.sort_dedup(&mut out, |id| id);
        out
    }

    fn reference(ids: &[u32]) -> Vec<u32> {
        let mut out = ids.to_vec();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn band_handles_empty_and_single_inputs() {
        let mut band = IdBand::default();
        assert!(band_sorted(&mut band, &[]).is_empty());
        assert_eq!(band.words.len(), 0, "an empty list touches no words");
        assert_eq!(band_sorted(&mut band, &[7]), vec![7]);
        assert_eq!(band_sorted(&mut band, &[u32::MAX]), vec![u32::MAX]);
        assert_eq!(band.words.len(), 1);
    }

    #[test]
    fn band_of_one_word_orders_and_dedups() {
        let mut band = IdBand::default();
        let ids = [1_000_063, 1_000_000, 1_000_031, 1_000_001, 1_000_031];
        assert_eq!(band_sorted(&mut band, &ids), reference(&ids));
        assert_eq!(band.words.len(), 1, "a 64-id band is one word");
        // The next call starts from a clear bitmap.
        assert_eq!(band_sorted(&mut band, &[5, 3]), vec![3, 5]);
    }

    #[test]
    fn band_handles_ids_near_the_top_of_the_id_space() {
        let mut band = IdBand::default();
        let ids = [
            u32::MAX,
            u32::MAX - 64,
            u32::MAX - 1,
            u32::MAX - 200,
            u32::MAX - 63,
        ];
        assert_eq!(band_sorted(&mut band, &ids), reference(&ids));
        assert_eq!(band.words.len(), 4);
    }

    #[test]
    fn band_wider_than_a_million_ids_matches_a_sort() {
        let mut band = IdBand::default();
        let ids: Vec<u32> = splitmix(11)
            .take(5_000)
            .map(|r| 3_000_000 + (r % 1_500_000) as u32)
            .chain([3_000_000, 4_499_999])
            .collect();
        assert_eq!(band_sorted(&mut band, &ids), reference(&ids));
        assert_eq!(band.words.len(), 1_500_000 / 64 + 1);
        // Reuse with a narrow band after a wide one: stale bits would show.
        let narrow = [42, 40, 41];
        assert_eq!(band_sorted(&mut band, &narrow), vec![40, 41, 42]);
    }

    #[test]
    fn band_matches_a_sort_on_random_lists() {
        let mut band = IdBand::default();
        let mut rng = splitmix(3);
        for round in 0..200 {
            let len = (rng.next().unwrap() % 300) as usize;
            let base = (rng.next().unwrap() % u64::from(u32::MAX)) as u32;
            let width = 1 + rng.next().unwrap() % (64 << (round % 12));
            let ids: Vec<u32> = (0..len)
                .map(|_| base.saturating_add((rng.next().unwrap() % width) as u32))
                .collect();
            assert_eq!(
                band_sorted(&mut band, &ids),
                reference(&ids),
                "round {round}"
            );
        }
    }

    #[test]
    fn radix_handles_empty_and_single_inputs() {
        let (mut items, mut spare) = (Vec::<u64>::new(), Vec::new());
        radix_sort_by_key(&mut items, &mut spare, |&k| k);
        assert!(items.is_empty());
        items.push(u64::MAX);
        radix_sort_by_key(&mut items, &mut spare, |&k| k);
        assert_eq!(items, vec![u64::MAX]);
    }

    #[test]
    fn radix_is_stable_on_equal_keys() {
        // (key, insertion order): equal keys must keep their input order.
        let mut items: Vec<(u64, usize)> = splitmix(5)
            .take(2_000)
            .enumerate()
            .map(|(i, r)| (r % 7, i))
            .collect();
        let mut expected = items.clone();
        expected.sort_by_key(|&(k, _)| k); // std's sort_by_key is stable
        radix_sort_by_key(&mut items, &mut Vec::new(), |&(k, _)| k);
        assert_eq!(items, expected);
        // All keys equal: nothing moves.
        let mut same: Vec<(u64, usize)> = (0..100).map(|i| (9, i)).collect();
        let before = same.clone();
        radix_sort_by_key(&mut same, &mut Vec::new(), |&(k, _)| k);
        assert_eq!(same, before);
    }

    #[test]
    fn two_stable_passes_give_the_lexicographic_order() {
        let mut spare = Vec::new();
        let mut rng = splitmix(9);
        for round in 0..50 {
            let len = (rng.next().unwrap() % 500) as usize;
            let minor_span = 1 + rng.next().unwrap() % (1 << (round % 40));
            let mut items: Vec<(u32, u64)> = (0..len)
                .map(|_| {
                    let r = rng.next().unwrap();
                    ((r >> 40) as u32 % 97, u64::MAX - r % minor_span)
                })
                .collect();
            let mut expected = items.clone();
            expected.sort_unstable();
            radix_sort_by_key(&mut items, &mut spare, |&(_, minor)| minor);
            radix_sort_by_key(&mut items, &mut spare, |&(major, _)| u64::from(major));
            assert_eq!(items, expected, "round {round}");
        }
    }

    #[test]
    fn radix_sorts_full_width_keys() {
        let mut items: Vec<u64> = splitmix(1).take(1_000).chain([0, u64::MAX]).collect();
        let mut expected = items.clone();
        expected.sort_unstable();
        radix_sort_by_key(&mut items, &mut Vec::new(), |&k| k);
        assert_eq!(items, expected);
    }
}
