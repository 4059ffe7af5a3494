"""Benchmark workloads: generated SBM configs and the CLI stages they run.

Each workload is a closed loop with one client. A run draws ``graphs``
SBM configs from its seed, so one run averages over several graphs and
not over one draw. Set-up stages run first, and again between passes
(see below); the timed stages run one after another through
``nbrattack.cli.main``, in-process, once on each graph per pass, and the
loop repeats passes until the measuring window closes. The benchmark
seed only reaches the program as the ``seed`` key of the generated
configs.
"""
from __future__ import annotations

from dataclasses import dataclass

# The README graph: 50/50 blocks, p_in 0.3, p_out 0.02, average degree ~16.
README_SBM = {"sbm_blocks": "50,50", "sbm_p_in": 0.3, "sbm_p_out": 0.02}

# 1000 nodes in two blocks with the README graph's expected in-block (14.7)
# and cross-block (1.0) degree, so only n changes between the two graphs.
SBM_1K = {"sbm_blocks": "500,500", "sbm_p_in": 0.0295, "sbm_p_out": 0.002}

STAGES = ("gen-sbm", "train-embed", "train-attack", "attack", "evaluate",
          "analyze", "oracle")

# A run first sets each of its graphs up once, and goes on until
# SETUP_FIRST_S seconds have gone into set-up; before every later pass it
# sets up again until SETUP_PASS_S more seconds have. setup_s is the
# median of all these samples, so a set-up of a few milliseconds is still
# steady and the samples span the whole run.
SETUP_FIRST_S, SETUP_PASS_S = 0.5, 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    graphs: int

    def graph_seed(self, seed: int, index: int) -> int:
        """Program seed of graph ``index`` in a run with benchmark ``seed``."""
        return seed * self.graphs + index

    def config_text(self, seed: int) -> str:
        lines = [f"seed = {seed}"]
        for key, val in self.config.items():
            if isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-attack-readme",
        why="README SBM; train-attack is ~90% of a README pipeline run, "
            "spent in DQN fits and in re-deriving graphs from replay",
        # Short embedding training keeps set-up cheap; the attacker still
        # does a full replay-driven fit per step once the buffer holds a batch.
        config={**README_SBM, "embed_epochs": 3, "dqn_episodes": 8},
        setup=("gen-sbm", "train-embed"),
        timed=("train-attack",),
        # Training cost depends on which targets the episodes draw, so a
        # run averages over four graphs.
        graphs=4,
    ),
    Workload(
        name="attack-sbm1k",
        why="1000-node SBM; inference extends one graph by a chain of edits "
            "while greedy and analyze derive ~n sibling graphs, forward only",
        # The attacker is trained only as far as inference needs a model;
        # DQN training does no timed work here. Brute force is off because
        # its subset count explodes at this n.
        config={**SBM_1K, "embed_epochs": 1, "walks_per_node": 2,
                "dqn_episodes": 3, "dqn_steps": 5, "dqn_batch": 8,
                "budget": 5, "budgets": "1,5", "num_targets": 10,
                "analyze_targets": 1, "oracle_targets": 1,
                "oracle_budget": 1, "include_brute": False},
        setup=("gen-sbm", "train-embed", "train-attack"),
        timed=("attack", "evaluate", "analyze", "oracle"),
        graphs=2,
    ),
    Workload(
        name="embed-sbm1k",
        why="1000-node SBM; fwd+bwd on one fixed graph dominated by walk "
            "sampling and unsup_loss, with no graph derivation and no DQN",
        config={**SBM_1K, "embed_epochs": 1},
        setup=("gen-sbm",),
        timed=("train-embed",),
        graphs=2,
    ),
)}


def stage_metric(stage: str) -> str:
    """End-to-end metric name of a stage, e.g. train-attack -> train_attack_s."""
    return stage.replace("-", "_") + "_s"
