"""Engine routing: the scheme record an unpinned or pinned database
gets, its explain surface, the database pin that overrides the
per-component decision, and databases with different pins running side
by side in threads."""

import importlib
import json
import random
import sys
import threading

import pytest

from repro import JoinQuery
from repro.cli import main
from repro.database import Database
from repro.optimizer import EngineRouter, EngineRouting
from repro.relational.relation import Relation
from repro.workloads.generators import generate_spiked_cycle
from tests import oracle


@pytest.fixture
def triangle():
    return generate_spiked_cycle(3, 21)


def route_of(db):
    return EngineRouter(db).route()


class TestEngineRouter:
    def test_cyclic_default_routes_to_wcoj(self, triangle):
        routing = route_of(triangle)
        assert routing.effective == "wcoj"
        assert routing.engine is None
        assert routing.cyclic and routing.connected
        assert routing.cover is not None
        m = (21 - 1) // 2
        assert routing.cover.bound == pytest.approx((2 * m + 1) ** 1.5)

    def test_acyclic_routes_to_yannakakis(self, chain3):
        routing = route_of(chain3)
        assert routing.effective == "yannakakis"
        assert routing.engine is None
        assert not routing.cyclic and routing.connected
        assert routing.reason == "each component decided on its plan's tau"

    def test_small_schemes_stay_on_the_default(self, disconnected_db):
        # No connected component reaches three relations, so nothing is
        # worth a multiway kernel.
        routing = route_of(disconnected_db)
        assert routing.effective == "vector"
        assert routing.engine is None
        assert "three or more" in routing.reason

    def test_database_pin_wins(self, triangle):
        pinned = Database(triangle.relations(), engine="vector")
        routing = route_of(pinned)
        assert routing.effective == "vector"
        assert routing.engine == "vector"
        assert "pinned" in routing.reason

    def test_disconnected_scheme_has_no_cover(self, disconnected_db):
        routing = route_of(disconnected_db)
        assert not routing.connected
        assert routing.cover is None

    def test_describe_and_to_dict(self, triangle):
        routing = route_of(triangle)
        line = routing.describe()
        assert line.startswith("engine: unpinned")
        assert "cyclic" in line
        image = routing.to_dict()
        assert image["effective"] == "wcoj"
        assert image["engine"] is None
        assert image["agm"]["bound"] == pytest.approx(routing.cover.bound)
        assert image["components"] == [{"relations": 3, "cyclic": True}]
        assert image["tree"] is None
        assert image["expansion"] == list(routing.expansion)
        json.dumps(image)  # must be JSON-ready

    def test_acyclic_to_dict_carries_the_join_tree(self, chain3):
        image = route_of(chain3).to_dict()
        assert image["tree"] == [[["A", "B"], ["B", "C"]], [["B", "C"], ["C", "D"]]]
        assert image["expansion"] is None
        json.dumps(image)

    def test_unrouted_describe_has_no_requested_clause(self, disconnected_db):
        line = route_of(disconnected_db).describe()
        assert "requested" not in line
        assert line.startswith("engine: unpinned")


class TestEngineSwitch:
    def test_with_engine_repins_with_fresh_caches(self, triangle):
        routed = triangle.with_engine("wcoj")
        assert routed.engine == "wcoj"
        assert routed is not triangle
        assert triangle.engine is None
        # Same engine is a no-op.
        assert routed.with_engine("wcoj") is routed


class TestQueryIntegration:
    def test_query_plans_on_the_database_it_is_given(self, triangle):
        query = JoinQuery(triangle)
        assert query.routing.effective == "wcoj"
        assert query.database is triangle
        assert triangle.engine is None

    def test_plan_explain_shows_engine_and_agm(self, triangle):
        plan = JoinQuery(triangle).optimize()
        text = plan.explain()
        assert "engine: unpinned (scheme cyclic" in text
        assert "agm: tau <=" in text
        assert f"(binary plan tau: {plan.cost})" in text

    def test_cyclic_explain_shows_the_expansion_order(self, triangle):
        text = JoinQuery(triangle).optimize().explain()
        assert "expansion order: " in text

    def test_plan_provenance_export_carries_routing(self, triangle):
        plan = JoinQuery(triangle).plan_greedy()
        image = plan.provenance.to_dict()
        assert image["routing"]["effective"] == "wcoj"
        assert image["routing"]["cyclic"] is True

    def test_routed_execution_matches_the_binary_result(self, triangle):
        executed = JoinQuery(triangle).execute()
        expected = Database(triangle.relations(), engine="vector").evaluate()
        lt, rt = expected._table(), executed._table()
        assert lt.order == rt.order and lt.rows == rt.rows

    def test_acyclic_query_explain_reports_yannakakis(self, chain3):
        text = JoinQuery(chain3).optimize().explain()
        assert "engine: unpinned (scheme acyclic" in text
        assert "acyclic" in text


class TestCLI:
    def test_optimize_prints_the_routing_verdict(self, capsys):
        assert (
            main(
                ["optimize", "--shape", "cycle", "--relations", "3",
                 "--size", "15", "--domain", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine: unpinned (scheme cyclic" in out
        assert "agm: tau <=" in out

    def test_explain_reports_engine_and_cyclicity(self, capsys):
        assert (
            main(
                ["explain", "--shape", "cycle", "--relations", "3",
                 "--size", "15", "--domain", "4", "--no-memory"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wcoj" in out
        assert "cyclic" in out

    def test_explain_profile_json_carries_routing(self, capsys, tmp_path):
        # The routing rides in the run ledger's profile record.
        path = tmp_path / "run.jsonl"
        assert (
            main(
                ["explain", "--shape", "cycle", "--relations", "3",
                 "--size", "15", "--domain", "4", "--no-memory",
                 "--trace-json", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        (payload,) = [
            record
            for record in map(json.loads, path.read_text().splitlines())
            if record["type"] == "profile"
        ]
        assert payload["engine"] == "wcoj"
        assert payload["routing"]["effective"] == "wcoj"
        assert payload["routing"]["cyclic"] is True

    def test_acyclic_explain_routes_to_yannakakis(self, capsys):
        assert (
            main(
                ["explain", "--shape", "chain", "--relations", "3",
                 "--size", "15", "--domain", "4", "--no-memory"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "acyclic" in out
        assert "unpinned" in out
        assert "join tree" in out

    def test_engine_flag_accepts_wcoj(self, capsys):
        assert (
            main(
                ["--engine", "wcoj", "optimize", "--shape", "cycle",
                 "--relations", "3", "--size", "15", "--domain", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine: wcoj" in out


def test_engine_routing_repr(triangle):
    routing = EngineRouter(triangle).route()
    assert repr(routing) == "<EngineRouting unpinned cyclic=True>"
    assert isinstance(routing, EngineRouting)


class TestConcurrentPins:
    """Each database carries its own engine: threads evaluating databases
    with different pins neither borrow nor disturb each other's engine."""

    ITERATIONS = 10

    @staticmethod
    def _four_cycle():
        """A 4-cycle AB-BC-CD-AD with the chord AC, as relations and as
        oracle operands.  The chord makes the triangles AB-BC-AC and
        AC-CD-AD proper cyclic subsets, which ``tau_of`` counts with
        Generic Join; the whole database is joined with it."""
        rng = random.Random(17)
        relations, operands = [], {}
        for scheme in ("AB", "BC", "CD", "AD", "AC"):
            rows = [
                {scheme[0]: rng.randint(1, 4), scheme[1]: rng.randint(1, 4)}
                for _ in range(12)
            ]
            relation = Relation.from_dicts(scheme, rows)
            relations.append(relation)
            operands[relation.scheme] = (scheme, rows)
        return relations, operands

    def test_wcoj_and_vector_pins_run_concurrently(self, monkeypatch):
        relations, operands = self._four_cycle()
        subsets = Database(relations).connected_subsets()
        expected_taus = [
            len(oracle.join_all(operands[s] for s in subset.sorted_schemes())[1])
            for subset in subsets
        ]
        expected = oracle.join_all(operands.values())

        # ``repro.database`` as an attribute is the database() helper,
        # so fetch the module itself to patch the kernel it calls.
        database_module = importlib.import_module("repro.database")
        callers = set()

        def spy(name):
            kernel = getattr(database_module, name)

            def run(tables, runtime=None):
                callers.add((name, threading.current_thread().name))
                return kernel(tables, runtime=runtime)

            monkeypatch.setattr(database_module, name, run)

        spy("generic_join")
        spy("generic_count")

        results = {}

        def work(engine):
            runs = results[threading.current_thread().name] = []
            for _ in range(self.ITERATIONS):
                db = Database(relations, engine=engine)
                taus = [db.tau_of(subset) for subset in subsets]
                runs.append((taus, db.evaluate()))

        threads = [
            threading.Thread(target=work, args=(engine,), name=f"{engine}-{i}")
            for i, engine in enumerate(("wcoj", "vector", "wcoj", "vector"))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for thread in threads:
            assert not thread.is_alive(), thread.name

        assert sorted(results) == sorted(thread.name for thread in threads)
        for runs in results.values():
            assert len(runs) == self.ITERATIONS
            for taus, evaluated in runs:
                assert taus == expected_taus
                oracle.assert_matches(evaluated, expected)
        # Generic Join joined and counted in the wcoj-pinned threads, and
        # only there.
        assert callers == {
            (kernel, thread)
            for kernel in ("generic_join", "generic_count")
            for thread in ("wcoj-0", "wcoj-2")
        }

