"""Unit tests for the plan-fact base: kernel predictions, the canonical
digest, plan-level aggregates, and the digest-keyed cache."""

import pytest

from repro.check.factbase import (
    FACTBASE_CACHE,
    FactBaseCache,
    build_factbase,
    factbase_for,
    plan_digest,
    predict_kernel,
    predict_mask_kind,
)
from repro.core import conditions as C
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.dependencies import ErrorHistory, track
from repro.core.errors import FrozenValue, GaussianNoise, SetToNull
from repro.core.patterns import ConstantPattern
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import Polluter, StandardPolluter


def nulls(attr="v", condition=None, name=None):
    return StandardPolluter(
        error=SetToNull(), attributes=[attr], condition=condition, name=name
    )


def plan(*polluters, name="t"):
    return PollutionPipeline(list(polluters), name=name)


class _CustomPolluter(Polluter):
    def apply(self, record, tau, log=None):  # pragma: no cover - never run
        raise NotImplementedError


class _OverridesApply(StandardPolluter):
    def apply(self, record, tau, log=None):
        return super().apply(record, tau, log)


class _OverridesApplyFired(StandardPolluter):
    def apply_fired(self, record, tau, log=None):
        return super().apply_fired(record, tau, log)


class _OverridesEvaluate(C.ProbabilityCondition):
    def evaluate(self, record, tau):
        return super().evaluate(record, tau)


class TestPredictMaskKind:
    def test_library_conditions_map_to_vectorized_kinds(self):
        assert predict_mask_kind(C.AlwaysCondition()) == "always"
        assert predict_mask_kind(C.NeverCondition()) == "never"
        assert predict_mask_kind(C.ProbabilityCondition(0.5)) == "probability"
        assert (
            predict_mask_kind(C.PatternProbabilityCondition(ConstantPattern(0.5)))
            == "pattern"
        )

    def test_value_dependent_conditions_need_a_row_mask(self):
        assert predict_mask_kind(C.AttributeCondition("v", ">", 1)) == "row"
        assert predict_mask_kind(C.EveryNthCondition(3)) == "row"

    def test_an_evaluate_override_demotes_to_row(self):
        # Same serialized shape as the parent, but the method identity gate
        # must refuse to vectorize a replaced evaluate().
        assert predict_mask_kind(_OverridesEvaluate(0.5)) == "row"


class TestPredictKernel:
    def test_composite_compiles_to_a_composite_kernel(self):
        composite = CompositePolluter(
            children=[nulls("v", C.ProbabilityCondition(0.5))],
            condition=C.EveryNthCondition(2),
            mode=CompositeMode.FIRST_MATCH,
            name="comp",
        )
        prediction = predict_kernel(composite)
        assert prediction.kind == "composite"
        assert prediction.reason == "composite-kernel"
        assert prediction.mask_kind == "row"  # the gate's mask strategy
        assert "first_match" in prediction.detail

    def test_tracked_wrapper_falls_back(self):
        wrapped = track(nulls("v", C.ProbabilityCondition(0.5)), ErrorHistory())
        prediction = predict_kernel(wrapped)
        assert prediction.kind == "fallback"
        assert prediction.reason == "tracked"

    def test_unknown_polluter_class_falls_back(self):
        prediction = predict_kernel(_CustomPolluter())
        assert prediction.reason == "custom-polluter"
        assert "_CustomPolluter" in prediction.detail

    def test_apply_override_falls_back(self):
        p = _OverridesApply(
            error=SetToNull(), attributes=["v"], condition=C.AlwaysCondition()
        )
        assert predict_kernel(p).reason == "overrides-apply"

    def test_apply_fired_override_falls_back(self):
        p = _OverridesApplyFired(
            error=SetToNull(), attributes=["v"], condition=C.AlwaysCondition()
        )
        assert predict_kernel(p).reason == "overrides-apply-fired"

    def test_gaussian_standard_path(self):
        p = StandardPolluter(
            error=GaussianNoise(1.0),
            attributes=["v"],
            condition=C.ProbabilityCondition(0.5),
        )
        prediction = predict_kernel(p)
        assert prediction.kind == "standard"
        assert prediction.reason == "standard"
        assert prediction.fired_path == "gaussian"
        assert prediction.mask_kind == "probability"
        assert prediction.vectorized_mask

    def test_row_mask_standard_path(self):
        p = nulls("v", C.AttributeCondition("v", ">", 1))
        prediction = predict_kernel(p)
        assert prediction.kind == "standard"
        assert prediction.mask_kind == "row"
        assert prediction.fired_path == "bulk"
        assert not prediction.vectorized_mask

    def test_to_dict_round_trips_every_field(self):
        d = predict_kernel(nulls("v", C.AlwaysCondition())).to_dict()
        assert d["kind"] == "standard"
        assert d["mask_kind"] == "always"
        assert d["fired_path"] == "bulk"
        assert d["reason"] == "standard"
        assert d["detail"]


class TestPlanDigest:
    def test_equal_configs_share_a_digest(self):
        a = plan(nulls("v", C.ProbabilityCondition(0.3)))
        b = plan(nulls("v", C.ProbabilityCondition(0.3)))
        assert a is not b
        assert plan_digest(a) == plan_digest(b)

    def test_parameter_changes_change_the_digest(self):
        a = plan(nulls("v", C.ProbabilityCondition(0.3)))
        b = plan(nulls("v", C.ProbabilityCondition(0.4)))
        assert plan_digest(a) != plan_digest(b)

    def test_non_declarative_plans_have_no_digest(self):
        assert plan_digest(plan(_CustomPolluter())) is None


class TestBuildFactbase:
    def test_sort_stable_and_mergeable_for_a_deterministic_plan(self):
        base = build_factbase(plan(nulls("v", C.AttributeCondition("v", ">", 1))))
        assert base.sort_stable
        assert not base.stateful
        assert not base.stochastic
        assert base.deterministically_mergeable
        assert base.digest is not None

    def test_stochastic_plan_is_not_mergeable(self):
        base = build_factbase(plan(nulls("v", C.ProbabilityCondition(0.5))))
        assert base.stochastic
        assert base.sort_stable
        assert not base.deterministically_mergeable

    def test_stateful_error_defeats_mergeability(self):
        frozen = StandardPolluter(
            error=FrozenValue(),
            attributes=["v"],
            condition=C.AttributeCondition("v", ">", 1),
        )
        base = build_factbase(plan(frozen))
        assert base.stateful
        assert not base.deterministically_mergeable

    def test_fallbacks_property_selects_only_fallback_polluters(self):
        composite = CompositePolluter(
            children=[nulls("v", C.ProbabilityCondition(0.5))],
            mode=CompositeMode.FIRST_MATCH,
            name="comp",
        )
        custom = _CustomPolluter("custom")
        base = build_factbase(plan(nulls("v", C.AlwaysCondition()), composite, custom))
        assert [pf.name for pf in base.fallbacks] == ["custom"]
        assert [k.kind for k in base.predictions] == ["standard", "composite", "fallback"]

    def test_polluter_facts_record_rng_and_declarative_form(self):
        base = build_factbase(
            plan(nulls("v", C.AlwaysCondition()), _CustomPolluter())
        )
        deterministic, custom = base.polluters
        assert deterministic.picklable
        assert not deterministic.needs_rng
        assert deterministic.declarative
        assert not custom.declarative
        assert custom.config_error
        assert custom.location == "polluters[1]"

    def test_unpicklable_polluter_is_flagged_with_the_error(self):
        p = nulls("v", C.AlwaysCondition())
        p.hook = lambda record: record  # local lambdas never pickle
        base = build_factbase(plan(p))
        assert not base.polluters[0].picklable
        assert "pickle" in base.polluters[0].pickle_error.lower() or (
            base.polluters[0].pickle_error
        )

    def test_to_dict_carries_the_plan_aggregates(self):
        base = build_factbase(plan(nulls("v", C.ProbabilityCondition(0.5))))
        d = base.to_dict()
        assert d["pipeline"] == "t"
        assert d["digest"] == base.digest
        assert d["stochastic"] is True
        assert d["deterministically_mergeable"] is False
        assert len(d["polluters"]) == 1
        assert d["polluters"][0]["kernel"]["reason"] == "standard"


class TestFactBaseCache:
    def test_hit_returns_the_cached_object(self):
        cache = FactBaseCache()
        pipeline = plan(nulls("v", C.ProbabilityCondition(0.5)))
        first = factbase_for(pipeline, cache)
        second = factbase_for(plan(nulls("v", C.ProbabilityCondition(0.5))), cache)
        assert second is first
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }

    def test_cache_none_always_builds_fresh(self):
        pipeline = plan(nulls("v", C.ProbabilityCondition(0.5)))
        assert factbase_for(pipeline, None) is not factbase_for(pipeline, None)

    def test_non_declarative_plans_bypass_the_cache(self):
        cache = FactBaseCache()
        pipeline = plan(_CustomPolluter())
        first = factbase_for(pipeline, cache)
        second = factbase_for(pipeline, cache)
        assert first is not second
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    def test_lru_evicts_the_oldest_entry(self):
        cache = FactBaseCache(maxsize=1)
        factbase_for(plan(nulls("v", C.ProbabilityCondition(0.1))), cache)
        factbase_for(plan(nulls("v", C.ProbabilityCondition(0.2))), cache)
        factbase_for(plan(nulls("v", C.ProbabilityCondition(0.1))), cache)
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["hits"] == 0
        assert stats["misses"] == 3
        assert stats["entries"] == 1

    def test_clear_resets_entries_and_counters(self):
        cache = FactBaseCache()
        factbase_for(plan(nulls("v", C.ProbabilityCondition(0.5))), cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            FactBaseCache(maxsize=0)

    def test_default_cache_is_process_global(self):
        FACTBASE_CACHE.clear()
        pipeline = plan(nulls("v", C.ProbabilityCondition(0.5)))
        first = factbase_for(pipeline)
        assert factbase_for(pipeline) is first
        assert FACTBASE_CACHE.stats()["hits"] >= 1
        FACTBASE_CACHE.clear()

    def test_publish_surfaces_the_counters(self):
        from repro.obs.metrics import MetricsRegistry

        cache = FactBaseCache()
        factbase_for(plan(nulls("v", C.ProbabilityCondition(0.5))), cache)
        factbase_for(plan(nulls("v", C.ProbabilityCondition(0.5))), cache)
        metrics = MetricsRegistry()
        cache.publish(metrics)
        values = {i.name: i.value for i in metrics.instruments()}
        assert values["factbase_cache_hits_total"] == 1
        assert values["factbase_cache_misses_total"] == 1
        assert values["factbase_cache_entries"] == 1
