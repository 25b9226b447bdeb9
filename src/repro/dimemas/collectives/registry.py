"""The selectable collective-model kinds and their factory.

Kept apart from :mod:`~repro.dimemas.collectives.base`, which platforms
import for :class:`CollectiveSpec`: the ``decomposed`` backend runs on the
DES kernel, and a platform description must not load it.
"""

from __future__ import annotations

from typing import Dict, Type, TYPE_CHECKING

from repro.dimemas.collectives.analytical import AnalyticalModel
from repro.dimemas.collectives.base import ANALYTICAL, DECOMPOSED, CollectiveModel
from repro.dimemas.collectives.decomposed import DecomposedModel
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des import Environment
    from repro.dimemas.network import NetworkFabric
    from repro.dimemas.platform import Platform

#: Registry of the selectable collective-model kinds.
COLLECTIVE_MODELS: Dict[str, Type[CollectiveModel]] = {
    ANALYTICAL: AnalyticalModel,
    DECOMPOSED: DecomposedModel,
}


def build_collective_model(env: "Environment", platform: "Platform",
                           num_ranks: int,
                           fabric: "NetworkFabric" = None) -> CollectiveModel:
    """Instantiate the model selected by ``platform.collective_model``."""
    try:
        model = COLLECTIVE_MODELS[platform.collective_model.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown collective model {platform.collective_model.kind!r} "
            f"(choose from {sorted(COLLECTIVE_MODELS)})") from None
    return model(env, platform, num_ranks, fabric)
