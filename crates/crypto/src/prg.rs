use rand::{CryptoRng, Error, RngCore, SeedableRng};

use crate::aes::Aes128;
use crate::Block;

/// An AES-128-CTR pseudorandom generator seeded by a [`Block`].
///
/// Used wherever the protocol needs expandable randomness bound to a short
/// seed: IKNP column expansion, garbler label streams, and the XOR-sharing
/// pads of the outsourcing mode. Implements [`rand::RngCore`] so it plugs
/// into any `rand`-based sampler.
///
/// # Example
///
/// ```
/// use deepsecure_crypto::{Block, Prg};
/// use rand::RngCore;
///
/// let mut prg = Prg::from_seed(Block::from(42u128));
/// let mut prg2 = Prg::from_seed(Block::from(42u128));
/// assert_eq!(prg.next_u64(), prg2.next_u64(), "same seed, same stream");
/// ```
#[derive(Clone)]
pub struct Prg {
    cipher: Aes128,
    counter: u128,
    buffer: [u8; 16],
    used: usize,
}

impl std::fmt::Debug for Prg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prg")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

/// Keystream blocks per AES call in [`Prg::fill`]: one full pass of the
/// hardware backend.
const FILL_WIDTH: usize = 8;

impl Prg {
    /// Creates a PRG from a 128-bit seed.
    pub fn from_seed(seed: Block) -> Prg {
        Prg {
            cipher: Aes128::new(seed.to_bytes()),
            counter: 0,
            buffer: [0; 16],
            used: 16,
        }
    }

    /// Produces the next 128-bit block of the stream.
    pub fn next_block(&mut self) -> Block {
        let ct = self.cipher.encrypt_block(self.counter.to_le_bytes());
        self.counter = self.counter.wrapping_add(1);
        Block::from_bytes(ct)
    }

    /// Fills `out` with pseudorandom bytes.
    ///
    /// Whole 16-byte chunks are written straight from the counter-mode
    /// keystream (eight blocks per AES pass), bypassing the staging buffer;
    /// only a leading buffered remainder and a trailing partial block go
    /// through it. The byte stream is identical to the byte-at-a-time
    /// formulation for every call-size split.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut pos = 0;
        // Drain whatever the last partial read left in the buffer.
        if self.used < 16 {
            let take = (16 - self.used).min(out.len());
            out[..take].copy_from_slice(&self.buffer[self.used..self.used + take]);
            self.used += take;
            pos = take;
        }
        // Whole blocks: up to eight keystream blocks per batched AES pass.
        while out.len() - pos >= 16 {
            let n = ((out.len() - pos) / 16).min(FILL_WIDTH);
            let mut keystream = [[0u8; 16]; FILL_WIDTH];
            for (i, block) in keystream[..n].iter_mut().enumerate() {
                *block = self.counter.wrapping_add(i as u128).to_le_bytes();
            }
            self.counter = self.counter.wrapping_add(n as u128);
            self.cipher.encrypt_slice(&mut keystream[..n]);
            for block in &keystream[..n] {
                out[pos..pos + 16].copy_from_slice(block);
                pos += 16;
            }
        }
        // Trailing partial block: stage it so the next call continues the
        // stream mid-block.
        if pos < out.len() {
            self.buffer = self.next_block().to_bytes();
            let rest = out.len() - pos;
            out[pos..].copy_from_slice(&self.buffer[..rest]);
            self.used = rest;
        }
    }

    /// Produces `n` pseudorandom bits packed LSB-first.
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        let mut bytes = vec![0u8; n.div_ceil(8)];
        self.fill(&mut bytes);
        (0..n).map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1).collect()
    }
}

impl RngCore for Prg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill(dest);
        Ok(())
    }
}

impl CryptoRng for Prg {}

impl SeedableRng for Prg {
    type Seed = [u8; 16];

    fn from_seed(seed: [u8; 16]) -> Prg {
        Prg::from_seed(Block::from_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Prg::from_seed(Block::from(1u128));
        let mut b = Prg::from_seed(Block::from(1u128));
        for _ in 0..32 {
            assert_eq!(a.next_block(), b.next_block());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = Prg::from_seed(Block::from(1u128));
        let mut b = Prg::from_seed(Block::from(2u128));
        assert_ne!(a.next_block(), b.next_block());
    }

    #[test]
    fn fill_is_prefix_consistent() {
        let mut a = Prg::from_seed(Block::from(5u128));
        let mut b = Prg::from_seed(Block::from(5u128));
        let mut big = [0u8; 40];
        a.fill(&mut big);
        let mut small = [0u8; 17];
        b.fill(&mut small);
        assert_eq!(&big[..17], &small[..]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn chunked_fill_is_split_invariant(
            splits in proptest::collection::vec(0usize..300, 1..8),
        ) {
            // Any sequence of fill() call sizes must produce the same byte
            // stream as one contiguous fill — the chunked fast path may not
            // depend on call boundaries. Sizes straddle the 128-byte
            // (eight-block) pass width.
            let total: usize = splits.iter().sum();
            let mut whole = vec![0u8; total];
            Prg::from_seed(Block::from(0xfeed_u128)).fill(&mut whole);
            let mut pieced = Vec::with_capacity(total);
            let mut prg = Prg::from_seed(Block::from(0xfeed_u128));
            for n in &splits {
                let mut part = vec![0u8; *n];
                prg.fill(&mut part);
                pieced.extend_from_slice(&part);
            }
            proptest::prop_assert_eq!(whole, pieced);
        }
    }

    #[test]
    fn fill_matches_block_at_a_time_stream() {
        // The batched fill is the counter-mode stream next_block() defines,
        // whatever the batch width.
        let mut blocks = Prg::from_seed(Block::from(7u128));
        let mut bytes = [0u8; 16 * 21];
        Prg::from_seed(Block::from(7u128)).fill(&mut bytes);
        for chunk in bytes.chunks_exact(16) {
            assert_eq!(chunk, &blocks.next_block().to_bytes()[..]);
        }
    }

    #[test]
    fn bit_balance() {
        let mut prg = Prg::from_seed(Block::from(99u128));
        let bits = prg.bits(10_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((4_600..5_400).contains(&ones), "ones = {ones}");
    }
}
