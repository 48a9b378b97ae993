"""Model configurations.

Two kinds of configs live here:

* **Paper-shape configs** — the exact layer dimensions of every model the
  paper evaluates (LLaMA-1/2/3, Mistral-7B, OPT-13B, Qwen2-72B).  The system
  experiments (kernel and serving benchmarks) only need these *shapes*; no
  checkpoint weights are involved.
* **Tiny configs** — small trainable instances used for the accuracy
  experiments (Tables 1 and 2), where a real forward pass and a real loss are
  required.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelConfig", "PAPER_MODELS", "get_model_config", "tiny_config"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of a decoder-only transformer.

    Attributes:
        name: registry key.
        vocab_size: token vocabulary size.
        d_model: hidden width.
        n_layers: number of decoder blocks.
        n_heads: query heads.
        n_kv_heads: key/value heads (< n_heads means grouped-query attention).
        d_ffn: MLP intermediate width (SwiGLU).
        max_seq_len: RoPE table length.
        params_billion: nominal parameter count used in reporting.
    """

    name: str
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    d_ffn: int
    max_seq_len: int = 4096
    params_billion: float = 0.0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be divisible by n_kv_heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    @property
    def gqa_group(self) -> int:
        return self.n_heads // self.n_kv_heads

    def linear_shapes(self) -> dict[str, tuple[int, int]]:
        """(out, in) shapes of the per-block linear layers — the GEMM
        workload the kernel benchmarks sweep over."""
        return {
            "wq": (self.d_model, self.d_model),
            "wk": (self.kv_dim, self.d_model),
            "wv": (self.kv_dim, self.d_model),
            "wo": (self.d_model, self.d_model),
            "w_gate": (self.d_ffn, self.d_model),
            "w_up": (self.d_ffn, self.d_model),
            "w_down": (self.d_model, self.d_ffn),
        }

    def weight_parameters(self) -> int:
        """Total linear + embedding parameters (used for memory planning)."""
        per_block = sum(o * i for o, i in self.linear_shapes().values())
        embed = self.vocab_size * self.d_model
        head = self.vocab_size * self.d_model
        norms = self.d_model * (2 * self.n_layers + 1)
        return per_block * self.n_layers + embed + head + norms

    def kv_values_per_token(self) -> int:
        """Cached scalars per token: K and V, across all layers."""
        return 2 * self.n_layers * self.kv_dim


def _m(
    name: str,
    vocab: int,
    d: int,
    layers: int,
    heads: int,
    kv_heads: int,
    ffn: int,
    billions: float,
    max_seq: int = 4096,
) -> ModelConfig:
    return ModelConfig(
        name=name,
        vocab_size=vocab,
        d_model=d,
        n_layers=layers,
        n_heads=heads,
        n_kv_heads=kv_heads,
        d_ffn=ffn,
        max_seq_len=max_seq,
        params_billion=billions,
    )


#: Every model evaluated in the paper (Tables 1-2, Figures 9-15), with the
#: public architecture dimensions.
PAPER_MODELS: dict[str, ModelConfig] = {
    cfg.name: cfg
    for cfg in [
        _m("llama-1-13b", 32000, 5120, 40, 40, 40, 13824, 13.0, 2048),
        _m("llama-1-30b", 32000, 6656, 60, 52, 52, 17920, 32.5, 2048),
        _m("llama-1-65b", 32000, 8192, 80, 64, 64, 22016, 65.2, 2048),
        _m("llama-2-7b", 32000, 4096, 32, 32, 32, 11008, 6.7),
        _m("llama-2-13b", 32000, 5120, 40, 40, 40, 13824, 13.0),
        _m("llama-2-70b", 32000, 8192, 80, 64, 8, 28672, 69.0),
        _m("llama-3-8b", 128256, 4096, 32, 32, 8, 14336, 8.0, 8192),
        _m("llama-3-70b", 128256, 8192, 80, 64, 8, 28672, 70.6, 8192),
        _m("mistral-7b", 32000, 4096, 32, 32, 8, 14336, 7.2, 8192),
        _m("opt-13b", 50272, 5120, 40, 40, 40, 20480, 13.0, 2048),
        _m("qwen2-72b", 152064, 8192, 80, 64, 8, 29568, 72.7, 8192),
    ]
}


def get_model_config(name: str) -> ModelConfig:
    """Look up a paper model by name; raises ``KeyError`` with suggestions."""
    try:
        return PAPER_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_MODELS))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None


def tiny_config(
    name: str = "tiny",
    vocab_size: int = 64,
    d_model: int = 64,
    n_layers: int = 2,
    n_heads: int = 4,
    n_kv_heads: int | None = None,
    d_ffn: int = 128,
    max_seq_len: int = 128,
) -> ModelConfig:
    """A small trainable configuration for accuracy experiments."""
    return ModelConfig(
        name=name,
        vocab_size=vocab_size,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=n_heads,
        n_kv_heads=n_kv_heads if n_kv_heads is not None else n_heads,
        d_ffn=d_ffn,
        max_seq_len=max_seq_len,
    )
