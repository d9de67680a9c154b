//! Model and parallelism configurations (paper Listing 1 / Table 4).

use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of a transformer LLM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name ("GPT3-13B", ...).
    pub name: String,
    /// Hidden size `h`.
    pub hidden: u32,
    /// Number of transformer layers `L`.
    pub layers: u32,
    /// Number of attention heads `a`.
    pub heads: u32,
    /// Sequence length `s`.
    pub seqlen: u32,
    /// Vocabulary size `V` (embedding + LM head).
    pub vocab: u32,
    /// FFN expansion as a multiple of `h`; the *effective* multiplier such
    /// that FFN parameter count is `2 · ffn_mult · h²`. GPT-3 uses 4 (two
    /// `h×4h` matrices); LLaMA-2's SwiGLU uses three `h×(8/3)h` matrices,
    /// which is the same `8h²` total, so both presets use 4.
    pub ffn_mult: f64,
    /// Bytes per parameter/activation element (2 = bf16).
    pub bytes_per_elem: u32,
}

impl ModelConfig {
    /// GPT3-1.6B (Table 4): h=1024, 128 layers, 16 heads, seqlen 1024.
    pub fn gpt3_1_6b() -> Self {
        Self {
            name: "GPT3-1.6B".into(),
            hidden: 1024,
            layers: 128,
            heads: 16,
            seqlen: 1024,
            vocab: 50_257,
            ffn_mult: 4.0,
            bytes_per_elem: 2,
        }
    }

    /// GPT3-13B (Table 4): h=3000, 128 layers, 40 heads, seqlen 1024.
    pub fn gpt3_13b() -> Self {
        Self {
            name: "GPT3-13B".into(),
            hidden: 3000,
            layers: 128,
            heads: 40,
            seqlen: 1024,
            vocab: 50_257,
            ffn_mult: 4.0,
            bytes_per_elem: 2,
        }
    }

    /// LLaMA2-3B (Table 4): h=2048, 64 layers, 16 heads, seqlen 1024.
    pub fn llama2_3b() -> Self {
        Self {
            name: "LLaMA2-3B".into(),
            hidden: 2048,
            layers: 64,
            heads: 16,
            seqlen: 1024,
            vocab: 32_000,
            ffn_mult: 4.0,
            bytes_per_elem: 2,
        }
    }

    /// LLaMA2-13B (Table 4): h=4096, 64 layers, 32 heads, seqlen 1024.
    pub fn llama2_13b() -> Self {
        Self {
            name: "LLaMA2-13B".into(),
            hidden: 4096,
            layers: 64,
            heads: 32,
            seqlen: 1024,
            vocab: 32_000,
            ffn_mult: 4.0,
            bytes_per_elem: 2,
        }
    }

    /// A GPT3-family config with a custom hidden size (used by the Fig. 8
    /// parameter-scaling sweep: 64 layers, 32 heads, seqlen 1024).
    pub fn gpt3_scaling(hidden: u32) -> Self {
        Self {
            name: format!("GPT3-h{hidden}"),
            hidden,
            layers: 64,
            heads: 32,
            seqlen: 1024,
            vocab: 50_257,
            ffn_mult: 4.0,
            bytes_per_elem: 2,
        }
    }

    /// Returns a copy with a different sequence length (Fig. 9 sweep).
    pub fn with_seqlen(mut self, seqlen: u32) -> Self {
        self.seqlen = seqlen;
        self
    }

    /// Parameters of one transformer layer: `4h²` attention + `2·ffn·h²`
    /// FFN (+ small norm/bias terms, ignored).
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        4 * h * h + (2.0 * self.ffn_mult * (h * h) as f64) as u64
    }

    /// Embedding (and tied LM head) parameters.
    pub fn embedding_params(&self) -> u64 {
        self.vocab as u64 * self.hidden as u64
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * self.layers as u64 + self.embedding_params()
    }
}

/// The 3D-parallel layout of a training job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Pipeline-parallel degree (devices in the pipeline dimension).
    pub pp: u32,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Data-parallel degree.
    pub dp: u32,
    /// Micro-batch size.
    pub mbs: u32,
    /// Global batch size.
    pub gbs: u32,
}

impl ParallelConfig {
    /// Micro-batches per pipeline per iteration:
    /// `N = gbs / (dp × mbs)`.
    ///
    /// # Panics
    /// If `gbs` is not divisible by `dp × mbs`.
    pub fn micros(&self) -> u32 {
        let denom = self.dp * self.mbs;
        assert!(
            self.gbs.is_multiple_of(denom),
            "global batch {} not divisible by dp*mbs = {}",
            self.gbs,
            denom
        );
        self.gbs / denom
    }

    /// Total devices used.
    pub fn total_devices(&self) -> u32 {
        self.pp * self.tp * self.dp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_hit_their_nominal_parameter_counts() {
        // Within 10% of the nominal size (embeddings push GPT3-1.6B a bit).
        let cases = [
            (ModelConfig::gpt3_1_6b(), 1.6e9),
            (ModelConfig::gpt3_13b(), 13.0e9),
            (ModelConfig::llama2_3b(), 3.0e9),
            (ModelConfig::llama2_13b(), 13.0e9),
        ];
        for (m, nominal) in cases {
            let p = m.total_params() as f64;
            assert!(
                (p - nominal).abs() / nominal < 0.12,
                "{}: {p:.3e} vs nominal {nominal:.3e}",
                m.name
            );
        }
    }

    #[test]
    fn params_per_layer_is_12_h_squared_for_gpt() {
        let m = ModelConfig::gpt3_1_6b();
        let h = m.hidden as u64;
        assert_eq!(m.params_per_layer(), 12 * h * h);
    }

    #[test]
    fn micros_formula() {
        let p = ParallelConfig {
            pp: 8,
            tp: 1,
            dp: 2,
            mbs: 2,
            gbs: 128,
        };
        assert_eq!(p.micros(), 32);
        assert_eq!(p.total_devices(), 16);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn micros_rejects_ragged_batches() {
        let p = ParallelConfig {
            pp: 8,
            tp: 1,
            dp: 3,
            mbs: 2,
            gbs: 128,
        };
        let _ = p.micros();
    }

    #[test]
    fn seqlen_override() {
        let m = ModelConfig::gpt3_1_6b().with_seqlen(4096);
        assert_eq!(m.seqlen, 4096);
        assert_eq!(m.hidden, 1024);
    }
}
