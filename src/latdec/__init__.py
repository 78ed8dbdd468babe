"""latdec: lattice decoding toolkit.

Closest-point search over lattice codes on linear Gaussian channels:
DFE/LLL preprocessing, a generic branch-and-bound engine covering the
classic sphere and sequential decoders, brute-force oracles, channel
simulators, and a Monte Carlo experiment runner.
"""

from .channels import (ChannelInstance, IsiConfig, LdCodeConfig, VblastConfig,
                       build_isi_instance, build_ld_instance, frame_rng,
                       sample_vblast)
from .lattice import (InfoSet, LatticeCode, UnimodularRecord, construction_a,
                      hnf_transform, is_unimodular, lll_reduce, sparsity_index)
from .linalg import (back_substitute, complex_to_real_matrix,
                     complex_to_real_vector, qr_decompose)
from .oracle import (MaxCost, MlPlan, OracleBox, PohstBudget, babai_box,
                     box_clps, enumerate_node_set, exhaustive_ml)
from .preprocess import (LeftPreprocResult, TreePlan, TreeProblem,
                         apply_back_map, form_tree, left_preprocess,
                         node_metric, prepare_tree, right_preprocess,
                         vblast_greedy_order)
from .search import (SearchOutcome, SearchPolicy, child_interval, fano_decode,
                     gbb_run, policy_babai, policy_ep, policy_ir,
                     policy_m_algorithm, policy_pohst, policy_se, policy_stack,
                     policy_t_algorithm, policy_vb, restart_schedule,
                     se_child_order, trace_lines)
from .sim import (DecoderSpec, ExperimentConfig, PreprocSpec, SweepReport,
                  compare_decoders, gamma_ratio, parse_config, run_sweep)

__version__ = "0.1.0"
