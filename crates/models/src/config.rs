//! Model architecture configurations (the paper's Table II).

use std::fmt;

/// The five workloads evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelPreset {
    /// GPT-3 XL, 1.3B parameters.
    Gpt3Xl,
    /// GPT-3 2.7B.
    Gpt3_2_7B,
    /// GPT-3 6.7B.
    Gpt3_6_7B,
    /// GPT-3 13B.
    Gpt3_13B,
    /// LLaMA 2 13B.
    Llama2_13B,
}

impl ModelPreset {
    /// All workloads in Table II order.
    pub const ALL: [ModelPreset; 5] = [
        ModelPreset::Gpt3Xl,
        ModelPreset::Gpt3_2_7B,
        ModelPreset::Gpt3_6_7B,
        ModelPreset::Gpt3_13B,
        ModelPreset::Llama2_13B,
    ];

    /// The architecture for this preset.
    pub fn config(self) -> TransformerConfig {
        match self {
            ModelPreset::Gpt3Xl => TransformerConfig::gpt("GPT-3 XL", 24, 32, 2048),
            ModelPreset::Gpt3_2_7B => TransformerConfig::gpt("GPT-3 2.7B", 32, 32, 2560),
            ModelPreset::Gpt3_6_7B => TransformerConfig::gpt("GPT-3 6.7B", 32, 32, 4096),
            ModelPreset::Gpt3_13B => TransformerConfig::gpt("GPT-3 13B", 40, 40, 5120),
            ModelPreset::Llama2_13B => TransformerConfig::llama("LLaMA 2 13B", 40, 40, 5120, 13824),
        }
    }

    /// Nominal parameter-count label used in the paper ("1.3B", "13B", ...).
    pub fn param_label(self) -> &'static str {
        match self {
            ModelPreset::Gpt3Xl => "1.3B",
            ModelPreset::Gpt3_2_7B => "2.7B",
            ModelPreset::Gpt3_6_7B => "6.7B",
            ModelPreset::Gpt3_13B => "13B",
            ModelPreset::Llama2_13B => "13B",
        }
    }
}

impl fmt::Display for ModelPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.config().name)
    }
}

/// Parses the CLI and query spelling (`gpt3-xl` or `gpt3-1.3b`,
/// `gpt3-2.7b`, `gpt3-6.7b`, `gpt3-13b`, `llama2-13b`; any case).
impl std::str::FromStr for ModelPreset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "gpt3-xl" | "gpt3-1.3b" => Ok(ModelPreset::Gpt3Xl),
            "gpt3-2.7b" => Ok(ModelPreset::Gpt3_2_7B),
            "gpt3-6.7b" => Ok(ModelPreset::Gpt3_6_7B),
            "gpt3-13b" => Ok(ModelPreset::Gpt3_13B),
            "llama2-13b" => Ok(ModelPreset::Llama2_13B),
            other => Err(format!(
                "unknown model '{other}' (expected gpt3-xl|gpt3-2.7b|gpt3-6.7b|gpt3-13b|llama2-13b)"
            )),
        }
    }
}

/// Architecture family, which changes the MLP block shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// GPT-3: fused QKV, 4x MLP, learned positional embeddings, tied
    /// output head.
    Gpt,
    /// LLaMA: gated (SwiGLU) MLP, untied output head.
    Llama,
}

/// A decoder-only transformer architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Human-readable name (Table II).
    pub name: &'static str,
    /// Architecture family.
    pub family: Family,
    /// Number of transformer layers.
    pub layers: u32,
    /// Attention heads.
    pub heads: u32,
    /// Hidden (model) dimension.
    pub hidden: u64,
    /// MLP inner dimension.
    pub ffn_hidden: u64,
    /// Vocabulary size.
    pub vocab: u64,
}

impl TransformerConfig {
    /// A GPT-3-family configuration (4x MLP, 50257-token vocabulary).
    pub fn gpt(name: &'static str, layers: u32, heads: u32, hidden: u64) -> Self {
        TransformerConfig {
            name,
            family: Family::Gpt,
            layers,
            heads,
            hidden,
            ffn_hidden: 4 * hidden,
            vocab: 50_257,
        }
    }

    /// A LLaMA-family configuration (gated MLP, 32000-token vocabulary).
    pub fn llama(name: &'static str, layers: u32, heads: u32, hidden: u64, ffn: u64) -> Self {
        TransformerConfig {
            name,
            family: Family::Llama,
            layers,
            heads,
            hidden,
            ffn_hidden: ffn,
            vocab: 32_000,
        }
    }

    /// Width of one attention head.
    pub fn head_dim(&self) -> u64 {
        self.hidden / u64::from(self.heads)
    }

    /// Parameters in one transformer layer.
    pub fn layer_params(&self) -> u64 {
        let h = self.hidden;
        let attn = 4 * h * h; // QKV + output projection
        let mlp = match self.family {
            Family::Gpt => 2 * h * self.ffn_hidden,
            Family::Llama => 3 * h * self.ffn_hidden, // gate, up, down
        };
        let norms = 4 * h;
        attn + mlp + norms
    }

    /// Parameters in the embedding (and, for LLaMA, the untied head).
    pub fn embedding_params(&self) -> u64 {
        match self.family {
            Family::Gpt => self.vocab * self.hidden,
            Family::Llama => 2 * self.vocab * self.hidden,
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> u64 {
        u64::from(self.layers) * self.layer_params() + self.embedding_params()
    }
}

impl fmt::Display for TransformerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1}B params, {} layers)",
            self.name,
            self.param_count() as f64 / 1e9,
            self.layers
        )
    }
}

/// Renders the paper's Table II as a markdown table.
pub fn table2_markdown() -> String {
    let mut out = String::from(
        "| Model | Parameters | Layers | Attention Heads | Hidden Dimensions |\n\
         |-------|------------|--------|-----------------|-------------------|\n",
    );
    for preset in ModelPreset::ALL {
        let cfg = preset.config();
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            cfg.name,
            preset.param_label(),
            cfg.layers,
            cfg.heads,
            cfg.hidden
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_architectures_match_paper() {
        let cfg = ModelPreset::Gpt3_2_7B.config();
        assert_eq!((cfg.layers, cfg.heads, cfg.hidden), (32, 32, 2560));
        let cfg = ModelPreset::Gpt3_13B.config();
        assert_eq!((cfg.layers, cfg.heads, cfg.hidden), (40, 40, 5120));
        let cfg = ModelPreset::Llama2_13B.config();
        assert_eq!((cfg.layers, cfg.heads, cfg.hidden), (40, 40, 5120));
    }

    #[test]
    fn parameter_counts_land_on_the_nominal_sizes() {
        let expect = [
            (ModelPreset::Gpt3Xl, 1.3e9),
            (ModelPreset::Gpt3_2_7B, 2.7e9),
            (ModelPreset::Gpt3_6_7B, 6.7e9),
            (ModelPreset::Gpt3_13B, 13.0e9),
            (ModelPreset::Llama2_13B, 13.0e9),
        ];
        for (preset, nominal) in expect {
            let actual = preset.config().param_count() as f64;
            let err = (actual - nominal).abs() / nominal;
            assert!(err < 0.06, "{preset}: {actual:.3e} vs {nominal:.1e}");
        }
    }

    #[test]
    fn head_dim_divides_hidden() {
        for preset in ModelPreset::ALL {
            let cfg = preset.config();
            assert_eq!(cfg.head_dim() * u64::from(cfg.heads), cfg.hidden);
        }
    }

    #[test]
    fn llama_mlp_is_gated() {
        let llama = ModelPreset::Llama2_13B.config();
        let gpt = ModelPreset::Gpt3_13B.config();
        // Same hidden size; LLaMA uses 3 matrices of 13824, GPT 2 of 20480.
        assert!(llama.layer_params() != gpt.layer_params());
    }

    #[test]
    fn table2_markdown_lists_all_models() {
        let t = table2_markdown();
        for preset in ModelPreset::ALL {
            assert!(t.contains(preset.config().name), "{preset}");
        }
    }

    #[test]
    fn display_summarizes_size() {
        let s = ModelPreset::Gpt3Xl.config().to_string();
        assert!(s.contains("GPT-3 XL"), "{s}");
        assert!(s.contains("24 layers"), "{s}");
    }
}
