"""Stateful models of the router's circuit-breaker contract.

Every slot :meth:`CircuitBreaker.allow` grants must be settled by
exactly one of ``record_success`` / ``record_failure`` /
``release_probe``; a grant left unsettled wedges the breaker once it
opens, which excludes its daemon from routing for good.  Two hypothesis
state machines check the contract: one drives a bare breaker on a fake
clock with overlapping grants settled in any order, the other drives
:meth:`Router.submit` over fake daemons whose dispatch outcomes are
drawn (success, infrastructure failure, admission refusal, typed
client error).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    multiple,
    rule,
)

from repro.serve import Router, RouterConfig
from repro.serve.router import (
    CLOSED,
    HALF_OPEN,
    CircuitBreaker,
    _AttemptFailed,
)
from repro.utils.errors import (
    ReproError,
    ServerOverloaded,
    ShardError,
    ValidationError,
)

COOLDOWN = 1.0


class BreakerMachine(RuleBasedStateMachine):
    """A bare breaker: grants overlap and settle in any order."""

    grants = Bundle("grants")

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.breaker = CircuitBreaker(
            failures=1, cooldown=COOLDOWN, clock=lambda: self.now
        )
        #: outstanding grants: id -> granted as a probe (not CLOSED)
        self.outstanding = {}
        self.next_id = 0

    @rule()
    def advance(self):
        self.now += COOLDOWN

    @rule(target=grants, count=st.integers(1, 3))
    def allow(self, count):
        # ``count`` overlapping requests each claim a slot.
        granted = []
        for _ in range(count):
            state = self.breaker.state
            predicted = self.breaker.would_allow()
            allowed = self.breaker.allow()
            assert allowed == predicted
            if state == CLOSED:
                assert allowed
            if allowed:
                self.next_id += 1
                self.outstanding[self.next_id] = state != CLOSED
                granted.append(self.next_id)
        return multiple(*granted)

    @rule(
        grant=consumes(grants),
        outcome=st.sampled_from(["release", "failure", "success"]),
    )
    def settle(self, grant, outcome):
        del self.outstanding[grant]
        if outcome == "success":
            self.breaker.record_success()
        elif outcome == "failure":
            self.breaker.record_failure()
        else:
            self.breaker.release_probe()

    @invariant()
    def one_probe_in_flight(self):
        if self.breaker.state == HALF_OPEN:
            probes = sum(self.outstanding.values())
            assert probes <= 1
            if probes:
                assert not self.breaker.would_allow()  # no second probe

    @invariant()
    def never_wedged(self):
        if self.outstanding:
            return
        waited = self.now - self.breaker._opened_at >= COOLDOWN
        if self.breaker.state != CLOSED and waited:
            assert self.breaker.would_allow()


TestBreakerMachine = BreakerMachine.TestCase
# The shortest run in which one grant's release frees another's probe
# slot takes five steps; 300 examples find such a leak in most runs and
# cost under a second.
TestBreakerMachine.settings = settings(
    max_examples=300, stateful_step_count=20, deadline=None
)


DAEMONS = ("127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103")

OUTCOMES = ("ok", "infrastructure", "refusal", "client-error")


class CountingBreaker(CircuitBreaker):
    """A breaker that counts its granted slots and its settlements."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.granted = 0
        self.settled = 0

    def allow(self) -> bool:
        granted = super().allow()
        self.granted += granted
        return granted

    def record_success(self) -> None:
        self.settled += 1
        super().record_success()

    def record_failure(self) -> None:
        self.settled += 1
        super().record_failure()

    def release_probe(self) -> None:
        self.settled += 1
        super().release_probe()


class RouterMachine(RuleBasedStateMachine):
    """``Router.submit`` over fake daemons with drawn dispatch outcomes.

    The router is never started, so no socket is opened: its
    ``_wire_submit`` is replaced by a script of outcomes, one per
    dispatch, and its breakers run on a fake clock.
    """

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        config = RouterConfig(
            daemons=DAEMONS, replication=3, breaker_failures=2,
            breaker_cooldown=COOLDOWN,
        )
        self.router = Router(config)
        self.router.breakers = {
            address: CountingBreaker(
                config.breaker_failures, config.breaker_cooldown,
                stats=self.router.stats, clock=lambda: self.now,
            )
            for address in DAEMONS
        }
        self.router._wire_submit = self._wire_submit
        self.script = []

    def _wire_submit(self, address, message, expires_at):
        outcome = self.script.pop(0) if self.script else "ok"
        if outcome == "ok":
            return {"ok": True, "result": {"served_by": address}}
        if outcome == "infrastructure":
            raise _AttemptFailed(
                ShardError(f"daemon {address} lost", worker=address),
                infrastructure=True,
            )
        if outcome == "refusal":
            raise _AttemptFailed(
                ServerOverloaded("queue full"), infrastructure=False
            )
        raise ValidationError("unknown config knob")

    def teardown(self) -> None:
        self.router.close()

    @rule(seconds=st.sampled_from([0.25, COOLDOWN]))
    def advance(self, seconds):
        self.now += seconds

    @rule(
        address=st.sampled_from(DAEMONS),
        alive=st.booleans(),
        draining=st.booleans(),
        depth=st.sampled_from([0, 9]),
    )
    def probe(self, address, alive, draining, depth):
        health = self.router.health[address]
        health.alive = alive
        health.draining = draining
        health.queue_capacity = 10
        health.queue_depth = depth

    @rule(
        outcomes=st.lists(st.sampled_from(OUTCOMES), max_size=3),
        kind=st.sampled_from(["objective", "cluster", "not-idempotent"]),
        seed=st.integers(0, 3),
    )
    def submit(self, outcomes, kind, seed):
        self.script = list(outcomes)
        job = {"kind": kind, "profile": "rm_small", "seed": seed}
        try:
            reply = self.router.submit(job)
        except ReproError:
            return
        assert reply["routed_to"] == reply["result"]["served_by"]

    @invariant()
    def every_grant_settled_once(self):
        for breaker in self.router.breakers.values():
            assert breaker.granted == breaker.settled
            assert breaker._inflight == 0

    @invariant()
    def every_routed_dispatch_counted(self):
        snap = self.router.stats.snapshot()
        for counts in snap["daemons"].values():
            assert counts["routed"] == counts["completed"] + counts["failed"]


TestRouterMachine = RouterMachine.TestCase
TestRouterMachine.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
