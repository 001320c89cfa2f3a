"""Array partner selection and boards vs their per-agent oracles.

``candidate_table`` + ``select_partner_rows`` pick every agent's partner
for B replicas at once; these tests pin them to ``select_partner``
agent by agent, on 3x3 and 6x6 grids, for every strategy — including
the tie cases the strict-``>`` scan decides (self vs upstream, two
upstreams) and the RNG stream of ``"random"``.  The array-backed
``MessageBoard``'s row methods are pinned to its per-agent ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.pairuplight.messaging import (
    MessageBoard,
    candidate_table,
    select_partner,
    select_partner_rows,
)
from repro.errors import ConfigError
from repro.scenarios.grid import build_grid

GRIDS = {size: build_grid(size, size) for size in (3, 6)}


class _ScoredEnv:
    """The two env queries ``select_partner`` makes, over fixed scores."""

    def __init__(self, network, scores: dict[str, float]) -> None:
        self.network = network
        self.scores = scores

    def upstream_neighbours(self, node_id: str) -> list[str]:
        return self.network.upstream_neighbours(node_id)

    def congestion_score(self, node_id: str) -> float:
        return self.scores[node_id]


def _agents(size: int) -> list[str]:
    return sorted(GRIDS[size].network.signalized_nodes())


def _oracle_rows(size, congestion, strategy="upstream", rng=None):
    """``(B, M)`` partner rows from per-agent ``select_partner`` calls."""
    agents = _agents(size)
    row = {a: i for i, a in enumerate(agents)}
    out = np.empty(congestion.shape, dtype=np.intp)
    for b, scores in enumerate(congestion):
        env = _ScoredEnv(GRIDS[size].network, dict(zip(agents, scores.tolist())))
        for i, agent_id in enumerate(agents):
            out[b, i] = row[select_partner(env, agent_id, strategy, rng=rng)]
    return out


def _array_rows(size, congestion, strategy="upstream", rng=None, live=None):
    agents = _agents(size)
    env = _ScoredEnv(GRIDS[size].network, {})
    table = candidate_table(env, agents)
    live_rows = np.arange(len(congestion)) if live is None else live
    return select_partner_rows(table, strategy, congestion, live_rows, rng=rng)


@pytest.mark.parametrize("size", [3, 6])
class TestUpstreamSelection:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_congestion(self, size, data):
        m = len(_agents(size))
        values = data.draw(
            st.lists(st.integers(0, 6), min_size=2 * m, max_size=2 * m)
        )
        congestion = np.asarray(values, dtype=np.float64).reshape(2, m)
        assert np.array_equal(
            _array_rows(size, congestion), _oracle_rows(size, congestion)
        )

    def test_all_zero_selects_self(self, size):
        congestion = np.zeros((1, len(_agents(size))))
        rows = _array_rows(size, congestion)
        assert np.array_equal(rows, _oracle_rows(size, congestion))
        assert np.array_equal(rows[0], np.arange(congestion.shape[1]))

    def test_tie_between_self_and_upstream_keeps_self(self, size):
        congestion = np.full((1, len(_agents(size))), 3.0)
        rows = _array_rows(size, congestion)
        assert np.array_equal(rows, _oracle_rows(size, congestion))
        assert np.array_equal(rows[0], np.arange(congestion.shape[1]))

    def test_tie_between_upstreams_keeps_first(self, size):
        agents = _agents(size)
        network = GRIDS[size].network
        # Every agent calm, every upstream of the probe equally congested.
        probe = max(agents, key=lambda a: len(network.upstream_neighbours(a)))
        upstream = network.upstream_neighbours(probe)
        assert len(upstream) >= 2
        congestion = np.zeros((1, len(agents)))
        for u in upstream:
            congestion[0, agents.index(u)] = 5.0
        rows = _array_rows(size, congestion)
        assert np.array_equal(rows, _oracle_rows(size, congestion))
        assert agents[rows[0, agents.index(probe)]] == upstream[0]

    def test_edge_nodes_have_fewer_candidates(self, size):
        agents = _agents(size)
        network = GRIDS[size].network
        table = candidate_table(_ScoredEnv(network, {}), agents)
        counts = [len(network.upstream_neighbours(a)) for a in agents]
        assert table.shape == (len(agents), 1 + max(counts))
        for i, count in enumerate(counts):
            assert table[i, 0] == i
            assert np.all(table[i, 1 + count :] == i)  # padded with self
        congestion = np.arange(len(agents), dtype=np.float64)[None, ::-1].copy()
        assert np.array_equal(
            _array_rows(size, congestion), _oracle_rows(size, congestion)
        )


@pytest.mark.parametrize("size", [3, 6])
class TestStaticAndRandomStrategies:
    @pytest.mark.parametrize("strategy", ["self", "fixed"])
    def test_static_strategies(self, size, strategy):
        congestion = np.random.default_rng(size).integers(0, 9, (3, len(_agents(size))))
        congestion = congestion.astype(np.float64)
        assert np.array_equal(
            _array_rows(size, congestion, strategy),
            _oracle_rows(size, congestion, strategy),
        )

    def test_random_strategy_same_picks_and_stream(self, size):
        congestion = np.zeros((3, len(_agents(size))))
        rng_array = np.random.default_rng(7)
        rng_oracle = np.random.default_rng(7)
        rows = _array_rows(size, congestion, "random", rng=rng_array)
        assert np.array_equal(
            rows, _oracle_rows(size, congestion, "random", rng=rng_oracle)
        )
        assert rng_array.bit_generator.state == rng_oracle.bit_generator.state

    def test_random_strategy_draws_for_live_replicas_only(self, size):
        congestion = np.zeros((3, len(_agents(size))))
        rng_array = np.random.default_rng(11)
        rng_oracle = np.random.default_rng(11)
        rows = _array_rows(
            size, congestion, "random", rng=rng_array, live=np.asarray([1])
        )
        oracle = _oracle_rows(size, congestion[:1], "random", rng=rng_oracle)
        assert np.array_equal(rows[1], oracle[0])
        assert rng_array.bit_generator.state == rng_oracle.bit_generator.state


class TestArrayBoard:
    IDS = ["a", "b", "c"]

    def test_row_methods_match_per_agent_methods(self):
        rows = np.random.default_rng(0).random((3, 2))
        by_row, by_agent = MessageBoard(self.IDS, 2), MessageBoard(self.IDS, 2)
        by_row.post_rows(rows)
        for agent_id, row in zip(self.IDS, rows):
            by_agent.post(agent_id, row)
        picks = np.asarray([2, 0, 2])
        gathered = by_row.gather(picks)
        for i, row in enumerate(picks):
            assert np.array_equal(gathered[i], by_agent.read(self.IDS[row]))
        gathered[:] = -1.0  # a gather is a copy
        assert np.array_equal(by_row.messages, by_agent.messages)

    def test_boards_share_a_caller_block(self):
        block = np.zeros((2, 3, 1))
        boards = [MessageBoard(self.IDS, 1, messages) for messages in block]
        boards[1].post("b", np.array([0.5]))
        assert block[1, 1, 0] == 0.5 and not block[0].any()
        block[...] = 0.25
        assert boards[0].read("c")[0] == 0.25
        boards[0].reset()
        assert not block[0].any() and block[1].all()

    def test_shapes_validated(self):
        with pytest.raises(ConfigError):
            MessageBoard(self.IDS, 2, np.zeros((3, 1)))
        with pytest.raises(ConfigError):
            MessageBoard(self.IDS, 2).post_rows(np.zeros((2, 2)))
