"""The Orleans-like actor substrate.

Everything the paper assumes from Orleans (§2) lives here: virtual actors
addressed by (type, key), on-demand activation, a placement directory,
pluggable placement policies, SEDA-staged silos with RPC/LPC message
paths, and the transparent opportunistic migration machinery of §4.3.
"""

from .activation import Activation
from .actor import DEFAULT_COMPUTE, DEFAULT_RESUME_COMPUTE, Actor
from .calls import All, Call, Sleep, Tell
from .directory import Directory, LocationCache
from .errors import ActorCrashed, ActorError, CallTimeout, RequestShed
from .ids import ActorId, ActorRef
from .messages import Message, MessageKind
from .placement import (
    HashPlacement,
    PlacementPolicy,
    PreferLocalPlacement,
    RandomPlacement,
    RoundRobinPlacement,
)
from .runtime import ActorRuntime, ClusterConfig
from .serialization import SerializationModel
from .server import STAGE_NAMES, Silo

__all__ = [
    "Activation",
    "Actor",
    "ActorCrashed",
    "ActorError",
    "ActorId",
    "ActorRef",
    "ActorRuntime",
    "All",
    "Call",
    "CallTimeout",
    "ClusterConfig",
    "DEFAULT_COMPUTE",
    "DEFAULT_RESUME_COMPUTE",
    "Directory",
    "HashPlacement",
    "LocationCache",
    "Message",
    "MessageKind",
    "PlacementPolicy",
    "PreferLocalPlacement",
    "RandomPlacement",
    "RequestShed",
    "RoundRobinPlacement",
    "STAGE_NAMES",
    "SerializationModel",
    "Tell",
    "Silo",
    "Sleep",
]
