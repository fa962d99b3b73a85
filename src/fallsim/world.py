"""Bounded 2-D grid world: agent roster, placement, and movement kinematics.

Distances are Chebyshev (king moves), one cell per tick by default. The grid
spans x in [-half_width, half_width] and y in [-half_height, half_height] with
no wrapping. Elderly residents and their detector devices never move; carers
and ambulances do.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from random import Random
from typing import NamedTuple, Optional, Sequence


class ConfigurationError(ValueError):
    """Raised when a world or scenario configuration cannot be realized."""


class Position(NamedTuple):
    """A grid cell; it hashes and compares as the plain tuple ``(x, y)``."""

    x: int
    y: int


class KeyEnum(Enum):
    """Base of the enums the engine uses as dict keys and set members.

    Members are singletons, so identity hashing is exact and runs in C;
    Enum's name-based hash costs a Python call on every lookup.
    """

    __hash__ = object.__hash__


class AgentKind(KeyEnum):
    ELDERLY = "elderly"
    DEVICE = "device"
    INFORMAL_CARER = "informal_carer"
    PROFESSIONAL_CARER = "professional_carer"
    AMBULANCE = "ambulance"


#: Kinds that are allowed to change position.
MOBILE_KINDS = frozenset(
    {AgentKind.INFORMAL_CARER, AgentKind.PROFESSIONAL_CARER, AgentKind.AMBULANCE}
)


class AgentStatus(Enum):
    IDLE = "idle"
    RANDOM_WALKING = "random_walking"
    ENROLLED_TRAVELING = "enrolled_traveling"
    RETURNING_TO_BASE = "returning_to_base"


@dataclass(frozen=True, slots=True)
class SensorModel:
    """Error model of one fall detector; draws are independent per tick."""

    p_false_negative: float
    p_false_positive: float

    def __post_init__(self) -> None:
        for name in ("p_false_negative", "p_false_positive"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")


@dataclass(slots=True)
class AgentState:
    id: int
    kind: AgentKind
    position: Position
    base: Optional[Position]
    status: AgentStatus = AgentStatus.IDLE
    # Elderly only: id of the unresolved alarm case, if any.
    pending_case: Optional[int] = None
    # Device only: id of the elderly resident it watches.
    watches: Optional[int] = None


@dataclass(frozen=True)
class WorldConfig:
    half_width: int = 16
    half_height: int = 16
    n_elderly: int = 30
    n_professional: int = 6
    n_ambulances: int = 5
    speed: int = 1
    # None means: derive from the run seed.
    placement_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.half_width < 0 or self.half_height < 0:
            raise ConfigurationError("grid half-extents must be non-negative")
        if min(self.n_elderly, self.n_professional, self.n_ambulances) < 0:
            raise ConfigurationError("agent counts must be non-negative")
        if self.speed < 1:
            raise ConfigurationError("speed must be >= 1")

    @property
    def width(self) -> int:
        return 2 * self.half_width + 1

    @property
    def height(self) -> int:
        return 2 * self.half_height + 1


def chebyshev(a: Position, b: Position) -> int:
    return max(abs(a.x - b.x), abs(a.y - b.y))


def _place(
    config: WorldConfig,
    rng: Random,
    n_informal: int,
    detectors_per_elderly: int,
) -> tuple[list[AgentState], Position]:
    """Place the full roster and the hospital; deterministic in the rng state.

    Houses and the hospital occupy distinct cells chosen uniformly without
    replacement. Professionals and ambulances start at the hospital; informal
    carers start at uniformly random cells, already walking.
    """
    if n_informal < 0 or detectors_per_elderly < 0:
        raise ConfigurationError("agent counts must be non-negative")
    n_cells = config.width * config.height
    if config.n_elderly + 1 > n_cells:
        raise ConfigurationError(
            f"grid of {n_cells} cells cannot hold {config.n_elderly} distinct "
            "houses plus a hospital"
        )

    def cell(index: int) -> Position:
        return Position(
            index % config.width - config.half_width,
            index // config.width - config.half_height,
        )

    picks = rng.sample(range(n_cells), config.n_elderly + 1)
    houses = [cell(i) for i in picks[: config.n_elderly]]
    hospital = cell(picks[config.n_elderly])

    agents: list[AgentState] = []
    next_id = 0

    def add(kind: AgentKind, position: Position, base: Optional[Position], **kw) -> AgentState:
        nonlocal next_id
        agent = AgentState(id=next_id, kind=kind, position=position, base=base, **kw)
        next_id += 1
        agents.append(agent)
        return agent

    for house in houses:
        elderly = add(AgentKind.ELDERLY, house, house)
        for _ in range(detectors_per_elderly):
            add(AgentKind.DEVICE, house, house, watches=elderly.id)
    for _ in range(config.n_professional):
        add(AgentKind.PROFESSIONAL_CARER, hospital, hospital)
    for _ in range(config.n_ambulances):
        add(AgentKind.AMBULANCE, hospital, hospital)
    for _ in range(n_informal):
        start = cell(rng.randrange(n_cells))
        add(AgentKind.INFORMAL_CARER, start, None, status=AgentStatus.RANDOM_WALKING)
    return agents, hospital


@dataclass
class World:
    """Roster plus placement landmarks for one simulation run."""

    config: WorldConfig
    agents: dict[int, AgentState]
    hospital: Position
    elderly_ids: list[int] = field(default_factory=list)
    device_ids: list[int] = field(default_factory=list)
    informal_ids: list[int] = field(default_factory=list)
    professional_ids: list[int] = field(default_factory=list)
    ambulance_ids: list[int] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        config: WorldConfig,
        rng: Random,
        n_informal: int = 0,
        detectors_per_elderly: int = 1,
    ) -> "World":
        roster, hospital = _place(config, rng, n_informal, detectors_per_elderly)
        world = cls(config=config, agents={a.id: a for a in roster}, hospital=hospital)
        buckets = {
            AgentKind.ELDERLY: world.elderly_ids,
            AgentKind.DEVICE: world.device_ids,
            AgentKind.INFORMAL_CARER: world.informal_ids,
            AgentKind.PROFESSIONAL_CARER: world.professional_ids,
            AgentKind.AMBULANCE: world.ambulance_ids,
        }
        for a in roster:
            buckets[a.kind].append(a.id)
        return world

    def in_bounds(self, p: Position) -> bool:
        return (
            -self.config.half_width <= p.x <= self.config.half_width
            and -self.config.half_height <= p.y <= self.config.half_height
        )


def step_toward(agent: AgentState, target: Position, steps: int = 1) -> None:
    """Advance a mobile agent ``steps`` king-moves toward target (in place).

    Each axis moves ``min(steps, |distance|)`` cells toward the target, so one
    call lands where ``steps`` single steps would. Only the position changes;
    the caller decides what reaching the target means.
    """
    if agent.kind not in MOBILE_KINDS:
        raise ValueError(f"agent {agent.id} of kind {agent.kind.value} cannot move")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    p = agent.position
    agent.position = Position(
        p.x + max(-steps, min(steps, target.x - p.x)),
        p.y + max(-steps, min(steps, target.y - p.y)),
    )


_DIRS8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@cache
def _neighbours(
    half_width: int, half_height: int
) -> dict[Position, tuple[Optional[Position], ...]]:
    """Each cell's 8 neighbours in ``_DIRS8`` order, None where off the grid.

    The neighbours are the same objects as the cells, so a walk allocates
    nothing. The table is shared by every caller and must not be mutated.
    """
    cells = {
        (x, y): Position(x, y)
        for x in range(-half_width, half_width + 1)
        for y in range(-half_height, half_height + 1)
    }
    return {
        cell: tuple(cells.get((cell.x + dx, cell.y + dy)) for dx, dy in _DIRS8)
        for cell in cells.values()
    }


def walk_carers(
    carers: Sequence[AgentState], rng: Random, half_width: int, half_height: int
) -> None:
    """Move every walking carer to a uniformly chosen in-bounds 8-neighbour cell."""
    if not carers or (half_width == 0 and half_height == 0):
        return
    neighbours = _neighbours(half_width, half_height)
    rand = rng.random
    walking = AgentStatus.RANDOM_WALKING
    for carer in carers:
        if carer.status is walking:
            options = neighbours[carer.position]
            # Rejection sampling keeps boundary cells uniform over their valid neighbours.
            step = options[int(rand() * 8)]
            while step is None:
                step = options[int(rand() * 8)]
            carer.position = step
