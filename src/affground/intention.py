"""Intention embedding from stub language-model hidden states.

Real multimodal-model inference is out of scope; hidden states arrive
either from fixture files or from :func:`synth_fixture`, a deterministic
generator whose token rows carry a class/affordance signal plus seeded
noise. The trainable pieces here are the contact-token projection (to
the intention embedding), the row-wise token projection (for fusion),
and a linear head predicting the affordance label as auxiliary
supervision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .nn import make_linear, make_mlp
from .rng import rng_for
from .tensor import Tensor

# projection tables are fixed across datasets so the same class or
# affordance id always maps to the same signal direction
SIGNAL_TABLE_SEED = 0x5EED_7AB1E

CONT_NOISE_SIGMA = 0.01
TOKEN_NOISE_SIGMA = 0.1


@dataclass
class HiddenStates:
    """L x d_h token states, the contact token's row, and the affordance label."""

    states: np.ndarray
    cont_index: int
    affordance_id: int = 0

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float32)
        if self.states.ndim != 2:
            raise ContractError(f"states must be 2-D, got {self.states.shape}")
        if self.states.shape[0] < 2:
            raise ContractError("need at least 2 token states")
        if not 0 <= self.cont_index < self.states.shape[0]:
            raise ContractError(
                f"cont_index {self.cont_index} out of range for "
                f"{self.states.shape[0]} tokens")

    @property
    def seq_len(self) -> int:
        return self.states.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.states.shape[1]


def extract_cont(h: HiddenStates) -> np.ndarray:
    """The contact token's hidden-state row."""
    return h.states[h.cont_index]


class IntentionHead:
    """Trainable projections from hidden states into the pipeline width."""

    def __init__(self, params: dict, prefix: str, rng, d_h: int, d: int,
                 n_affordances: int, cont_width: int = 256, dtype=np.float32):
        if n_affordances < 2:
            raise ContractError("affordance vocabulary needs at least 2 entries")
        self.d_h = d_h
        self.d = d
        self.dtype = dtype
        self.cont_mlp = make_mlp(params, f"{prefix}.cont", rng,
                                 [d_h, cont_width, d], dtype)
        self.token_mlp = make_mlp(params, f"{prefix}.tokens", rng,
                                  [d_h, cont_width, d], dtype)
        self.aux_head = make_linear(params, f"{prefix}.aux", rng,
                                    d_h, n_affordances, dtype)

    def _cont_row(self, h: HiddenStates) -> Tensor:
        return Tensor(extract_cont(h).reshape(1, -1).astype(self.dtype))

    def project_cont(self, h: HiddenStates) -> Tensor:
        """Contact row -> (1, d) intention embedding."""
        if h.hidden_dim != self.d_h:
            raise ContractError(f"hidden width {h.hidden_dim}, expected {self.d_h}")
        return self.cont_mlp(self._cont_row(h))

    def project_hidden(self, h: HiddenStates) -> Tensor:
        """All token rows -> (L, d), row order preserved."""
        if h.hidden_dim != self.d_h:
            raise ContractError(f"hidden width {h.hidden_dim}, expected {self.d_h}")
        return self.token_mlp(Tensor(h.states.astype(self.dtype)))

    def aux_affordance_logits(self, h: HiddenStates) -> Tensor:
        """(1, K) logits over the affordance vocabulary from the contact row."""
        return self.aux_head(self._cont_row(h))


def _signal_vector(kind: str, index: int, d_h: int) -> np.ndarray:
    rng = rng_for(SIGNAL_TABLE_SEED, kind, int(index), d_h)
    v = rng.normal(size=d_h)
    return (v / np.sqrt(d_h)).astype(np.float64)


def synth_fixture(class_id: int, affordance_id: int, seed: int, L: int = 32,
                  d_h: int = 2048) -> HiddenStates:
    """Deterministic stand-in for language-model inference.

    Every token row carries the same class+affordance signal direction
    drawn from a fixed table, plus per-token Gaussian noise (sigma 0.1).
    The contact token sits at position L-1 and carries the cleanest copy
    (sigma 0.01). Identical arguments produce bitwise-identical output.
    """
    if L < 2:
        raise ContractError(f"need at least 2 tokens, got L={L}")
    if class_id < 0 or affordance_id < 0:
        raise ContractError("ids must be non-negative")
    signal = _signal_vector("class", class_id, d_h) + \
        _signal_vector("affordance", affordance_id, d_h)
    rng = rng_for(int(seed), "fixture-noise", class_id, affordance_id, L, d_h)
    states = signal[None, :] + rng.normal(scale=TOKEN_NOISE_SIGMA, size=(L, d_h))
    states[L - 1] = signal + rng.normal(scale=CONT_NOISE_SIGMA, size=d_h)
    return HiddenStates(states=states.astype(np.float32), cont_index=L - 1,
                        affordance_id=affordance_id)
