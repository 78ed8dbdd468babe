"""latdec: lattice decoding toolkit.

Closest-point search over lattice codes on linear Gaussian channels:
DFE/LLL preprocessing, a generic branch-and-bound engine covering the
classic sphere and sequential decoders, exhaustive ML decoding, channel
simulators, and a Monte Carlo experiment runner.
"""

from .channels import (ChannelInstance, IsiConfig, LdCodeConfig, VblastConfig,
                       build_isi_instance, build_ld_instance, frame_rng,
                       sample_vblast)
from .lattice import (InfoSet, LatticeCode, UnimodularRecord, construction_a,
                      lll_reduce)
from .linalg import complex_to_real_matrix, qr_decompose
from .oracle import MlPlan, exhaustive_ml
from .preprocess import (LeftPreprocResult, TreePlan, TreeProblem,
                         apply_back_map, form_tree, left_preprocess,
                         prepare_tree, right_preprocess, vblast_greedy_order)
from .search import (SearchOutcome, SearchPolicy, fano_decode, gbb_run,
                     policy_babai, policy_ep, policy_ir, policy_m_algorithm,
                     policy_pohst, policy_se, policy_stack, policy_t_algorithm,
                     policy_vb, restart_schedule, trace_lines)
from .sim import (DecoderSpec, ExperimentConfig, PreprocSpec, SweepReport,
                  compare_decoders, parse_config, run_sweep)

__version__ = "0.1.0"
