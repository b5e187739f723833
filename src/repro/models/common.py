"""Model registry and shared helpers for the CNN model zoo.

Every model is exposed as a builder function ``builder(batch_size, **kwargs)``
returning a validated :class:`~repro.ir.graph.Graph`.  Builders are registered
by name so experiments and the CLI can instantiate networks uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..ir.graph import Graph

__all__ = [
    "ModelBuilder",
    "ModelSpec",
    "MODEL_REGISTRY",
    "register_model",
    "resolve_zoo_builder",
    "list_models",
    "set_default_optimize",
    "default_optimize",
    "BENCHMARK_MODELS",
]

ModelBuilder = Callable[..., Graph]


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry describing one model family."""

    name: str
    builder: ModelBuilder
    description: str
    default_image_size: int
    paper_blocks: int | None = None
    paper_operators: int | None = None
    operator_type: str = ""


MODEL_REGISTRY: dict[str, ModelSpec] = {}

#: The four CNNs benchmarked throughout the paper's evaluation (Table 2).
BENCHMARK_MODELS = ["inception_v3", "randwire", "nasnet_a", "squeezenet"]


def register_model(spec: ModelSpec) -> ModelSpec:
    """Register a model spec; raises on duplicate names."""
    if spec.name in MODEL_REGISTRY:
        raise ValueError(f"model {spec.name!r} is already registered")
    MODEL_REGISTRY[spec.name] = spec
    return spec


#: Process-wide default for ``repro.frontend.load(optimize=None)``; flipped by
#: the CLI's ``--passes`` flag so every experiment sees rewritten graphs.
_DEFAULT_OPTIMIZE = False


def set_default_optimize(enabled: bool) -> bool:
    """Set the process-wide default for the loader's pass pipeline.

    Returns the previous value so callers (tests, the CLI) can restore it.
    """
    global _DEFAULT_OPTIMIZE
    previous = _DEFAULT_OPTIMIZE
    _DEFAULT_OPTIMIZE = bool(enabled)
    return previous


def default_optimize() -> bool:
    """The process-wide default for the loader's pass pipeline."""
    return _DEFAULT_OPTIMIZE


_MODEL_ALIASES = {
    "inceptionv3": "inception_v3",
    "inception": "inception_v3",
    "nasnet": "nasnet_a",
    "nasneta": "nasnet_a",
    "randwire_small": "randwire",
    "resnet50": "resnet_50",
    "resnet34": "resnet_34",
    "resnet18": "resnet_18",
    "vgg16": "vgg_16",
}


def resolve_zoo_builder(name: str) -> ModelBuilder:
    """Resolve a (possibly aliased) zoo model name to its builder function.

    Raises
    ------
    KeyError
        If no registered model matches; the message lists every known name.
    """
    key = name.lower().replace("-", "_").replace(" ", "_")
    key = _MODEL_ALIASES.get(key, key)
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key].builder


def list_models() -> list[str]:
    """Names of all registered models."""
    return sorted(MODEL_REGISTRY)


def model_specs(names: Iterable[str] | None = None) -> list[ModelSpec]:
    """Specs for the requested models (default: the four benchmark CNNs)."""
    selected = list(names) if names is not None else BENCHMARK_MODELS
    return [MODEL_REGISTRY[n] for n in selected]
