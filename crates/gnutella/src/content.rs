//! Content and interest model.
//!
//! Two empirical facts drive the locality experiments:
//!
//! * file popularity is Zipf-like;
//! * user interest is **locality-correlated**: "locality correlated users'
//!   searches, whose desired contents are located in the proximity"
//!   (\[25\]\[18\]\[24\], cited in §2.1) — peers in the same region ask for (and
//!   therefore share) overlapping content.
//!
//! [`ContentModel`] mixes a global Zipf catalogue with a per-AS slice of
//! regionally popular files: with probability `locality` a peer draws from
//! its AS's slice, otherwise from the global distribution. Peers *share*
//! files drawn from the same distribution they *search* from, which is how
//! the correlation arises in the wild.

use uap_net::{AsId, HostId};
use uap_sim::{SimRng, Zipf};

/// A shared file identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u32);

/// The catalogue plus the interest distributions.
pub struct ContentModel {
    n_files: usize,
    global: Zipf,
    /// Per-AS regional sub-catalogue: contiguous file-id ranges.
    as_slice: Vec<(u32, u32)>,
    regional: Zipf,
    /// Probability an interest draw is regional.
    pub locality: f64,
}

impl ContentModel {
    /// Builds a catalogue of `n_files` for `n_ases` regions.
    ///
    /// `zipf_s` is the popularity exponent (≈ 0.8–1.0 in measurement
    /// studies); `locality` the regional-interest mixture weight in
    /// `[0, 1]` (0 = no interest locality at all).
    pub fn new(n_files: usize, n_ases: usize, zipf_s: f64, locality: f64) -> ContentModel {
        assert!(n_files >= n_ases.max(1), "need at least one file per AS");
        assert!(
            u32::try_from(n_files).is_ok(),
            "catalogue exceeds the u32 FileId width"
        );
        let slice_len = (n_files / n_ases.max(1)).max(1);
        let as_slice = (0..n_ases)
            .map(|a| {
                // lint:allow(cast) — a · slice_len ≤ n_files, which fits u32 (asserted above)
                let start = (a * slice_len) as u32;
                // lint:allow(cast) — capped at n_files
                let end = (((a + 1) * slice_len).min(n_files)) as u32;
                (start, end.max(start + 1))
            })
            .collect();
        ContentModel {
            n_files,
            global: Zipf::new(n_files, zipf_s),
            as_slice,
            regional: Zipf::new(slice_len, zipf_s),
            locality: locality.clamp(0.0, 1.0),
        }
    }

    /// Catalogue size.
    pub fn n_files(&self) -> usize {
        self.n_files
    }

    /// Draws a file this peer is interested in (for queries).
    #[expect(clippy::indexing_slicing, reason = "modulus keeps it < as_slice.len()")]
    pub fn sample_interest(&self, asn: AsId, rng: &mut SimRng) -> FileId {
        if rng.chance(self.locality) {
            let (start, end) = self.as_slice[asn.idx() % self.as_slice.len()];
            let span = (end - start) as usize;
            let rank = self.regional.sample(rng).min(span.saturating_sub(1));
            // lint:allow(cast) — rank < end − start, so the sum is < n_files (u32 by `new`)
            FileId(start + rank as u32)
        } else {
            // lint:allow(cast) — a rank < n_files (u32 by `new`)
            FileId(self.global.sample(rng) as u32)
        }
    }

    /// Draws the set of files a peer shares (k distinct draws from its own
    /// interest distribution — people share what they fetched).
    pub fn seed_shares(&self, asn: AsId, k: usize, rng: &mut SimRng) -> Vec<FileId> {
        let mut out: Vec<FileId> = Vec::with_capacity(k);
        let mut guard = 0;
        while out.len() < k && guard < k * 50 {
            guard += 1;
            let f = self.sample_interest(asn, rng);
            if !out.contains(&f) {
                out.push(f);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Who shares what, file-major: bit `h` of row `f` is set iff host `h`
/// shares file `f` — `n_files × ⌈hosts/64⌉` words, built once from the
/// per-host share lists (which never change during a run). A query tests
/// every node its flood reached against one row, which stays in L1, where
/// the per-host lists cost a binary search into a cold `Vec` per node.
pub(crate) struct Holders {
    words_per_file: usize,
    bits: Vec<u64>,
}

/// One file's row of a [`Holders`] index.
#[derive(Clone, Copy)]
pub(crate) struct HolderRow<'a>(&'a [u64]);

impl Holders {
    /// Indexes `shared[h]`, the files host `h` shares, over a catalogue
    /// of `n_files`.
    pub(crate) fn new(n_files: usize, shared: &[Vec<FileId>]) -> Holders {
        let words_per_file = shared.len().div_ceil(64);
        let mut bits = vec![0u64; n_files * words_per_file];
        for (h, files) in shared.iter().enumerate() {
            for f in files {
                if let Some(word) = bits.get_mut(f.0 as usize * words_per_file + h / 64) {
                    *word |= 1 << (h % 64);
                }
            }
        }
        Holders {
            words_per_file,
            bits,
        }
    }

    /// The holders of `file` (nobody, for a file outside the catalogue).
    pub(crate) fn of_file(&self, file: FileId) -> HolderRow<'_> {
        let start = file.0 as usize * self.words_per_file;
        HolderRow(
            self.bits
                .get(start..start + self.words_per_file)
                .unwrap_or(&[]),
        )
    }
}

impl HolderRow<'_> {
    /// Whether host `h` shares the row's file.
    pub(crate) fn contains(self, h: HostId) -> bool {
        self.0
            .get(h.idx() / 64)
            .is_some_and(|word| word >> (h.idx() % 64) & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The holder index answers every (host, file) pair the way the
    /// per-host binary search it replaced does — hosts that share nothing,
    /// a host count that is not a multiple of 64, and ids past either end
    /// of the index included.
    #[test]
    fn holders_equal_binary_search_of_share_lists() {
        let (n_files, n_hosts) = (300, 131);
        let m = ContentModel::new(n_files, 7, 0.9, 0.6);
        let mut rng = SimRng::new(5);
        let shared: Vec<Vec<FileId>> = (0..n_hosts)
            .map(|h| m.seed_shares(AsId(h as u16 % 7), (h % 4) * 9, &mut rng))
            .collect();
        let holders = Holders::new(n_files, &shared);
        for f in (0..n_files as u32 + 2).map(FileId) {
            let row = holders.of_file(f);
            for h in 0..n_hosts + 70 {
                let listed = shared.get(h).is_some_and(|s| s.binary_search(&f).is_ok());
                assert_eq!(row.contains(HostId(h as u32)), listed, "{f:?} at host {h}");
            }
        }
    }

    #[test]
    fn interest_is_in_range() {
        let m = ContentModel::new(1_000, 10, 0.9, 0.5);
        let mut rng = SimRng::new(1);
        for _ in 0..1_000 {
            let f = m.sample_interest(AsId(3), &mut rng);
            assert!((f.0 as usize) < m.n_files());
        }
    }

    #[test]
    fn full_locality_stays_in_slice() {
        let m = ContentModel::new(1_000, 10, 0.9, 1.0);
        let mut rng = SimRng::new(2);
        for _ in 0..500 {
            let f = m.sample_interest(AsId(4), &mut rng);
            assert!((400..500).contains(&f.0), "file {} outside AS4 slice", f.0);
        }
    }

    #[test]
    fn zero_locality_ignores_region() {
        let m = ContentModel::new(1_000, 10, 1.0, 0.0);
        let mut rng = SimRng::new(3);
        // With pure Zipf, rank 0 (file 0) must dominate regardless of AS.
        let hits = (0..2_000)
            .filter(|_| m.sample_interest(AsId(9), &mut rng) == FileId(0))
            .count();
        assert!(hits > 100, "file 0 drawn only {hits} times");
    }

    #[test]
    fn same_as_peers_share_more_overlap_than_cross_as() {
        let m = ContentModel::new(2_000, 8, 0.8, 0.7);
        let mut rng = SimRng::new(4);
        let overlap = |a: AsId, b: AsId, rng: &mut SimRng| {
            let mut acc = 0usize;
            for _ in 0..30 {
                let sa = m.seed_shares(a, 20, rng);
                let sb = m.seed_shares(b, 20, rng);
                acc += sa.iter().filter(|f| sb.contains(f)).count();
            }
            acc
        };
        let same = overlap(AsId(2), AsId(2), &mut rng);
        let cross = overlap(AsId(2), AsId(6), &mut rng);
        assert!(
            same > cross,
            "same-AS overlap {same} not > cross-AS {cross}"
        );
    }

    #[test]
    fn seed_shares_distinct_and_sorted() {
        let m = ContentModel::new(500, 5, 0.9, 0.5);
        let mut rng = SimRng::new(5);
        let shares = m.seed_shares(AsId(0), 25, &mut rng);
        assert_eq!(shares.len(), 25);
        for w in shares.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn tiny_catalogue_works() {
        let m = ContentModel::new(10, 10, 1.0, 1.0);
        let mut rng = SimRng::new(6);
        let f = m.sample_interest(AsId(9), &mut rng);
        assert_eq!(f, FileId(9));
    }
}
