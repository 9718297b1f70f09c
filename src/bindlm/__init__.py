"""bindlm: multi-modal conditioning for a toy decoder-only language model.

The pieces, bottom to top:

- tensor: float64 kernel with explicit per-op backward and a finite-difference
  gradient checker
- encoders: deterministic synthetic encoders into one shared embedding space,
  embedding mixing, and the zero placeholder
- bind: the projection network from the shared space into the LM hidden space
- lm: decoder-only transformer with zero-initialized gated condition injection
- peft: LoRA adapters, bias-norm tuning, parameter-group freezing
- cache: persisted cosine top-k store with residual embedding enhancement
- data / train / evaluate / checkpoint / cli: corpus synthesis, the staged
  training loop, eval suites, and the command-line pipeline
"""

from .bind import BindConfig, BindNetwork, bind_forward, bind_init
from .cache import CacheStore, RetrievalResult, cache_build, enhance, load_cache, save_cache, topk
from .encoders import (
    EncoderConfig,
    JointEmbedding,
    Modality,
    SyntheticEncoder,
    build_encoders,
    encode,
    mix,
    placeholder_embedding,
)
from .lm import GenerationParams, InjectedLM, LMConfig, caption_loss, generate, lm_forward, lm_init
from .peft import apply_peft, lora_forward, merge
from .tensor import Tape, Tensor, grad_check
from .tokenizer import Tokenizer, default_tokenizer
from .train import AdamW, TrainPlan, default_plan, run_stage

__version__ = "0.1.0"
