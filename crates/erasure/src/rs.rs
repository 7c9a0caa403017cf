//! Reed-Solomon erasure coding over GF(2⁸).
//!
//! UniDrive generates **non-systematic** parity blocks (paper §6.1): the
//! generator matrix contains no identity rows, so no stored block is a
//! verbatim slice of the original segment and a provider cannot read
//! plaintext out of the blocks it holds. Any `k` of the up-to-`n` blocks
//! reconstruct the segment (MDS property of Vandermonde matrices).
//!
//! Blocks are generated lazily by index: the scheduler asks for block 7
//! of a segment only when over-provisioning decides to send it.

use std::fmt;
use std::sync::OnceLock;

use unidrive_util::bytes::Bytes;

use crate::matrix::Matrix;
use crate::{gf256, RedundancyConfig};

/// How one generator-row coefficient multiplies a shard into the
/// output: nothing, a u64-wide XOR, or one product-table lookup per
/// byte. Built lazily once per row and cached on the [`Codec`], so the
/// two-lookup log/exp multiply leaves the encode inner loop entirely.
#[derive(Debug, Clone)]
enum CoeffKernel {
    Zero,
    One,
    Table(Box<gf256::MulTable>),
}

/// Shares smaller than this decode via the plain log/exp multiply; at
/// or above it, building a 256-byte product table per matrix entry
/// amortizes to a clear win.
const DECODE_TABLE_THRESHOLD: usize = 512;


/// Error from [`Codec`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Parameters out of range (`k` = 0, `k > n`, or `n > 255`).
    BadParameters {
        /// Total blocks requested.
        n: usize,
        /// Data blocks per segment.
        k: usize,
    },
    /// Fewer than `k` distinct shares supplied to `decode`.
    NotEnoughShares {
        /// Distinct shares supplied.
        have: usize,
        /// Shares required.
        need: usize,
    },
    /// The same block index appeared twice in `decode`.
    DuplicateShare {
        /// Offending index.
        index: usize,
    },
    /// A share index exceeds the code length.
    IndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Code length.
        n: usize,
    },
    /// Shares have inconsistent lengths.
    LengthMismatch,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadParameters { n, k } => {
                write!(f, "invalid code parameters n={n} k={k}")
            }
            CodecError::NotEnoughShares { have, need } => {
                write!(f, "need {need} shares to decode, have {have}")
            }
            CodecError::DuplicateShare { index } => {
                write!(f, "duplicate share index {index}")
            }
            CodecError::IndexOutOfRange { index, n } => {
                write!(f, "share index {index} out of range for code length {n}")
            }
            CodecError::LengthMismatch => write!(f, "shares have inconsistent lengths"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An `(n, k)` Reed-Solomon codec.
///
/// # Examples
///
/// ```
/// use unidrive_erasure::Codec;
///
/// # fn main() -> Result<(), unidrive_erasure::CodecError> {
/// let codec = Codec::non_systematic(10, 3)?;
/// let data = b"the quick brown fox jumps over the lazy dog";
/// // Generate blocks 0, 4 and 9 (any subset of the 10 possible).
/// let blocks: Vec<_> = [0usize, 4, 9]
///     .iter()
///     .map(|&i| (i, codec.encode_block(data, i)))
///     .collect();
/// let shares: Vec<(usize, &[u8])> =
///     blocks.iter().map(|(i, b)| (*i, b.as_ref())).collect();
/// let restored = codec.decode(&shares, data.len())?;
/// assert_eq!(&restored[..], &data[..]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Codec {
    n: usize,
    k: usize,
    generator: Matrix,
    /// Lazily built per-row [`CoeffKernel`]s (one slot per block index).
    kernels: Vec<OnceLock<Vec<CoeffKernel>>>,
}

impl Codec {
    /// Creates a non-systematic codec: block `i` is the segment evaluated
    /// at Vandermonde point `i + 1`; no block is a plaintext shard.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadParameters`] if `k == 0`, `k > n`, or `n > 255`.
    pub fn non_systematic(n: usize, k: usize) -> Result<Self, CodecError> {
        Self::validate(n, k)?;
        let points: Vec<u8> = (1..=n as u16).map(|x| x as u8).collect();
        Ok(Codec {
            n,
            k,
            generator: Matrix::vandermonde(&points, k),
            kernels: (0..n).map(|_| OnceLock::new()).collect(),
        })
    }

    /// Creates the codec a [`RedundancyConfig`] implies: non-systematic
    /// with dimension `k` and the *full* GF(2⁸) length 255. Generator
    /// rows depend only on the block index and `k`, so blocks encoded
    /// under one cloud count stay decodable after clouds are added or
    /// removed; the scheduler, not the codec, enforces the
    /// configuration's `max_block_count`.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadParameters`] if `k` exceeds 255.
    pub fn for_config(config: &RedundancyConfig) -> Result<Self, CodecError> {
        Codec::non_systematic(255, config.k())
    }

    fn validate(n: usize, k: usize) -> Result<(), CodecError> {
        if k == 0 || k > n || n > 255 {
            Err(CodecError::BadParameters { n, k })
        } else {
            Ok(())
        }
    }

    /// Code length (maximum distinct blocks).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code dimension (blocks needed to decode).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Length of each block for a segment of `data_len` bytes.
    pub fn block_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.k)
    }

    /// The cached multiply kernels for generator row `index`.
    fn row_kernels(&self, index: usize) -> &[CoeffKernel] {
        self.kernels[index].get_or_init(|| {
            self.generator
                .row(index)
                .iter()
                .map(|&c| match c {
                    0 => CoeffKernel::Zero,
                    1 => CoeffKernel::One,
                    c => CoeffKernel::Table(Box::new(gf256::mul_table(c))),
                })
                .collect()
        })
    }

    /// Encodes block `index` into `slot`, which must be zero-filled and
    /// exactly one block long. The first contributing shard
    /// *initializes* the slot (a copy or a straight table map) instead
    /// of accumulating into the zeroes, so freshly calloc-zeroed pages
    /// are written once, never read-modify-written.
    fn encode_block_into(&self, data: &[u8], index: usize, slot: &mut [u8]) {
        let len = slot.len();
        let mut initialized = false;
        for (j, kernel) in self.row_kernels(index).iter().enumerate() {
            let start = j * len;
            if start >= data.len() {
                break; // zero-padded shard contributes nothing
            }
            let end = (start + len).min(data.len());
            let shard = &data[start..end];
            let dst = &mut slot[..shard.len()];
            match kernel {
                CoeffKernel::Zero => continue,
                CoeffKernel::One if initialized => gf256::xor_slice(dst, shard),
                CoeffKernel::One => dst.copy_from_slice(shard),
                CoeffKernel::Table(t) if initialized => {
                    gf256::mul_add_slice_with_table(dst, shard, t);
                }
                CoeffKernel::Table(t) => gf256::mul_slice_with_table(dst, shard, t),
            }
            initialized = true;
        }
    }

    /// Generates block `index` (0-based) for `data`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n` or `data` is empty.
    pub fn encode_block(&self, data: &[u8], index: usize) -> Bytes {
        assert!(index < self.n, "block index {index} out of range");
        assert!(!data.is_empty(), "cannot encode an empty segment");
        let len = self.block_len(data.len());
        let mut out = vec![0u8; len];
        self.encode_block_into(data, index, &mut out);
        Bytes::from(out)
    }

    /// Generates the given block indices for `data`, deriving the
    /// per-segment state (block length, row kernels) once and encoding
    /// the whole stripe into a single allocation; each returned block
    /// is a zero-copy window of it.
    ///
    /// # Panics
    ///
    /// As for [`encode_block`](Codec::encode_block).
    pub fn encode_blocks(&self, data: &[u8], indices: &[usize]) -> Vec<Bytes> {
        if indices.is_empty() {
            return Vec::new();
        }
        assert!(!data.is_empty(), "cannot encode an empty segment");
        let len = self.block_len(data.len());
        let mut stripe = vec![0u8; len * indices.len()];
        for (slot, &i) in stripe.chunks_exact_mut(len).zip(indices) {
            assert!(i < self.n, "block index {i} out of range");
            self.encode_block_into(data, i, slot);
        }
        let stripe = Bytes::from(stripe);
        (0..indices.len())
            .map(|j| stripe.slice(j * len..(j + 1) * len))
            .collect()
    }

    /// Reconstructs the original `data_len` bytes from at least `k`
    /// distinct `(block index, block bytes)` shares.
    ///
    /// # Errors
    ///
    /// See [`CodecError`]; notably
    /// [`NotEnoughShares`](CodecError::NotEnoughShares) when fewer than
    /// `k` distinct blocks are available — the security property when the
    /// shares come from fewer than `K_s` clouds.
    pub fn decode(&self, shares: &[(usize, &[u8])], data_len: usize) -> Result<Vec<u8>, CodecError> {
        let block_len = self.block_len(data_len);
        let mut chosen: Vec<(usize, &[u8])> = Vec::with_capacity(self.k);
        let mut seen = vec![false; self.n];
        for &(idx, bytes) in shares {
            if idx >= self.n {
                return Err(CodecError::IndexOutOfRange { index: idx, n: self.n });
            }
            if seen[idx] {
                return Err(CodecError::DuplicateShare { index: idx });
            }
            seen[idx] = true;
            if bytes.len() != block_len {
                return Err(CodecError::LengthMismatch);
            }
            if chosen.len() < self.k {
                chosen.push((idx, bytes));
            }
        }
        if chosen.len() < self.k {
            return Err(CodecError::NotEnoughShares {
                have: chosen.len(),
                need: self.k,
            });
        }
        let rows: Vec<usize> = chosen.iter().map(|&(i, _)| i).collect();
        let sub = self.generator.select_rows(&rows);
        let inv = sub
            .inverse()
            .expect("any k Vandermonde-derived rows are invertible");
        // shard_j = sum_i inv[j][i] * share_i
        let mut data = vec![0u8; self.k * block_len];
        for j in 0..self.k {
            let dst = &mut data[j * block_len..(j + 1) * block_len];
            for (i, &(_, share)) in chosen.iter().enumerate() {
                let c = inv.get(j, i);
                if c > 1 && block_len >= DECODE_TABLE_THRESHOLD {
                    gf256::mul_add_slice_with_table(dst, share, &gf256::mul_table(c));
                } else {
                    gf256::mul_add_slice(dst, share, c);
                }
            }
        }
        data.truncate(data_len);
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn round_trip_with_first_k_blocks() {
        let codec = Codec::non_systematic(10, 3).unwrap();
        let data = sample_data(1000);
        let blocks = codec.encode_blocks(&data, &[0, 1, 2]);
        let shares: Vec<(usize, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.as_ref()))
            .collect();
        assert_eq!(codec.decode(&shares, data.len()).unwrap(), data);
    }

    #[test]
    fn round_trip_with_any_k_blocks() {
        let codec = Codec::non_systematic(10, 3).unwrap();
        let data = sample_data(257); // not a multiple of k: exercises padding
        for combo in [[0usize, 5, 9], [7, 2, 4], [9, 8, 6], [1, 3, 5]] {
            let blocks = codec.encode_blocks(&data, &combo);
            let shares: Vec<(usize, &[u8])> = combo
                .iter()
                .zip(&blocks)
                .map(|(&i, b)| (i, b.as_ref()))
                .collect();
            assert_eq!(
                codec.decode(&shares, data.len()).unwrap(),
                data,
                "combo {combo:?}"
            );
        }
    }

    #[test]
    fn fewer_than_k_shares_reveal_nothing_decodable() {
        let codec = Codec::non_systematic(10, 3).unwrap();
        let data = sample_data(100);
        let blocks = codec.encode_blocks(&data, &[0, 1]);
        let shares: Vec<(usize, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.as_ref()))
            .collect();
        assert!(matches!(
            codec.decode(&shares, data.len()).unwrap_err(),
            CodecError::NotEnoughShares { have: 2, need: 3 }
        ));
    }

    #[test]
    fn non_systematic_blocks_differ_from_plaintext_shards() {
        let codec = Codec::non_systematic(10, 3).unwrap();
        let data = sample_data(300);
        let block_len = codec.block_len(data.len());
        for i in 0..10 {
            let block = codec.encode_block(&data, i);
            for j in 0..3 {
                let shard = &data[j * block_len..((j + 1) * block_len).min(data.len())];
                assert_ne!(&block[..shard.len()], shard, "block {i} leaks shard {j}");
            }
        }
    }

    #[test]
    fn duplicate_and_out_of_range_shares_rejected() {
        let codec = Codec::non_systematic(5, 2).unwrap();
        let data = sample_data(10);
        let b = codec.encode_block(&data, 0);
        let dup: Vec<(usize, &[u8])> = vec![(0, b.as_ref()), (0, b.as_ref())];
        assert!(matches!(
            codec.decode(&dup, 10).unwrap_err(),
            CodecError::DuplicateShare { index: 0 }
        ));
        let oor: Vec<(usize, &[u8])> = vec![(9, b.as_ref())];
        assert!(matches!(
            codec.decode(&oor, 10).unwrap_err(),
            CodecError::IndexOutOfRange { index: 9, n: 5 }
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let codec = Codec::non_systematic(5, 2).unwrap();
        let data = sample_data(100);
        let b0 = codec.encode_block(&data, 0);
        let short = &b0[..10];
        let shares: Vec<(usize, &[u8])> = vec![(0, b0.as_ref()), (1, short)];
        assert!(matches!(
            codec.decode(&shares, 100).unwrap_err(),
            CodecError::LengthMismatch
        ));
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(Codec::non_systematic(0, 0).is_err());
        assert!(Codec::non_systematic(3, 4).is_err());
        assert!(Codec::non_systematic(256, 3).is_err());
        assert!(Codec::non_systematic(255, 255).is_ok());
    }

    #[test]
    fn paper_config_codec_round_trip() {
        let cfg = RedundancyConfig::paper_default();
        let codec = Codec::for_config(&cfg).unwrap();
        assert_eq!(codec.n(), 255);
        assert_eq!(codec.k(), 3);
        let data = sample_data(4 * 1024 * 1024); // one θ-sized segment
        // Decode from one over-provisioned + two normal blocks.
        let combo = [9usize, 0, 4];
        let blocks = codec.encode_blocks(&data, &combo);
        let shares: Vec<(usize, &[u8])> = combo
            .iter()
            .zip(&blocks)
            .map(|(&i, b)| (i, b.as_ref()))
            .collect();
        assert_eq!(codec.decode(&shares, data.len()).unwrap(), data);
    }

    #[test]
    fn tiny_segments_encode() {
        let codec = Codec::non_systematic(10, 3).unwrap();
        for len in [1usize, 2, 3, 4, 5] {
            let data = sample_data(len);
            let combo = [2usize, 6, 8];
            let blocks = codec.encode_blocks(&data, &combo);
            assert_eq!(blocks[0].len(), codec.block_len(len));
            let shares: Vec<(usize, &[u8])> = combo
                .iter()
                .zip(&blocks)
                .map(|(&i, b)| (i, b.as_ref()))
                .collect();
            assert_eq!(codec.decode(&shares, len).unwrap(), data, "len {len}");
        }
    }
}
