"""Mixed-precision quantization search for small neural networks.

The package trains a network once while a REINFORCE controller assigns a
numeric format (integer or minifloat) to every compute layer, balancing task
quality against a bit-operations cost model.  Submodules:

- ``formats``: format descriptors and search spaces
- ``quantize``: the quantizer itself plus error metrics
- ``costmodel``: bit-operation costs, manifests, reward shaping
- ``controller``: softmax policies and the REINFORCE update
- ``network``: a small numpy CNN/MLP stack with quantized training
- ``data``: IDX files, synthetic blobs, batch planning
- ``search``: the one-shot search loop and serving helpers
- ``analysis``: switching/clipping studies and correlation tools

The top level re-exports what the CLI, the demos and README's examples use;
everything else is imported from its submodule.  The analysis names load
``analysis`` on first access, so a search never imports it.
"""

from .arch import ArchChoice, arch_for
from .controller import (
    advantage_update,
    beta_schedule,
    make_controller,
    model_entropy,
    reinforce_step,
    sample_architecture,
)
from .costmodel import GBOPS, layer_cost, load_manifest, model_cost, uniform_cost
from .data import BatchPlan, batch_stream, load_idx, validation_set, write_idx
from .errors import (
    ConfigError,
    FitError,
    FliqsError,
    FormatSpecError,
    ManifestError,
    SearchAbort,
)
from .formats import float_format, int_format, max_representable, representable_values, \
    resolve_format
from .network import (
    QuantPhase,
    SGDState,
    accuracy,
    backward,
    build_model,
    builtin_model_config,
    cross_entropy,
    forward,
    profile_thresholds,
    save_weights,
    sgd_step,
)
from .quantize import bf16_round, quant_error, quantize
from .search import (
    ControllerConfig,
    SearchConfig,
    TrainerConfig,
    build_dataset,
    run_search,
    run_uniform,
    search_config_from_dict,
    search_config_to_dict,
    serve_config,
    served_doc_from_dict,
    write_trace_csv,
)

__version__ = "0.1.0"

# the analysis studies load on first use of one of their names: a search never runs them
_ANALYSIS_NAMES = ("SynthSpec", "clipping_sweep", "entropy_switch_correlation",
                   "fit_exponential", "switching_sweep")


def __getattr__(name):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # analysis
    "SynthSpec", "clipping_sweep", "entropy_switch_correlation", "fit_exponential",
    "switching_sweep",
    # arch
    "ArchChoice", "arch_for",
    # controller
    "advantage_update", "beta_schedule", "make_controller", "model_entropy",
    "reinforce_step", "sample_architecture",
    # costmodel
    "GBOPS", "layer_cost", "load_manifest", "model_cost", "uniform_cost",
    # data
    "BatchPlan", "batch_stream", "load_idx", "validation_set", "write_idx",
    # errors
    "ConfigError", "FitError", "FliqsError", "FormatSpecError", "ManifestError",
    "SearchAbort",
    # formats
    "float_format", "int_format", "max_representable", "representable_values",
    "resolve_format",
    # network
    "QuantPhase", "SGDState", "accuracy", "backward", "build_model",
    "builtin_model_config", "cross_entropy", "forward", "profile_thresholds",
    "save_weights", "sgd_step",
    # quantize
    "bf16_round", "quant_error", "quantize",
    # search
    "ControllerConfig", "SearchConfig", "TrainerConfig", "build_dataset", "run_search",
    "run_uniform", "search_config_from_dict", "search_config_to_dict", "serve_config",
    "served_doc_from_dict", "write_trace_csv",
]
