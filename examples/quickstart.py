"""Quickstart: a chat-like service on the simulated actor runtime + ActOp.

Builds a 4-server cluster, defines a Room actor (hub) and User actors
(spokes), drives broadcast traffic, and shows ActOp's partitioning
migrating each room next to its users — remote-message share collapsing
while end-to-end latency drops.

Run:  python examples/quickstart.py
"""

from repro import (
    ActOp,
    ActOpConfig,
    Actor,
    ActorRuntime,
    All,
    Call,
    ClusterConfig,
    PartitioningConfig,
)


class User(Actor):
    """One chat participant."""

    COMPUTE = {"receive": 20e-6, "say": 30e-6}

    def __init__(self):
        super().__init__()
        self.inbox = 0
        self.room = None

    def join(self, room_ref):
        self.room = room_ref
        return True

    def receive(self, text):
        # Replay-safe: inbox is a delivery diagnostic, not an exact count.
        self.inbox += 1
        return self.inbox

    def say(self, text):
        """Client entry point: broadcast through the room."""
        if self.room is None:
            return 0
        delivered = yield Call(self.room, "broadcast", text, size=300)
        return delivered


class Room(Actor):
    """A chat room: broadcasts each message to every member."""

    COMPUTE = {"broadcast": 40e-6}

    def __init__(self):
        super().__init__()
        self.members = []

    def add_member(self, user_ref):
        self.members.append(user_ref)
        return len(self.members)

    def broadcast(self, text):
        acks = yield All([
            Call(u, "receive", text, size=300, response_size=32)
            for u in self.members
        ])
        return len(acks)


def main():
    runtime = ActorRuntime(ClusterConfig(num_servers=4, seed=42))
    runtime.register_actor("user", User)
    runtime.register_actor("room", Room)

    # 12 rooms x 6 users. Virtual actors: the first message activates them.
    rooms = [runtime.ref("room", r) for r in range(12)]
    users = {r: [runtime.ref("user", f"{r}-{u}") for u in range(6)]
             for r in range(12)}
    for r, room in enumerate(rooms):
        for user in users[r]:
            # Joining twice would duplicate the membership entry, so the
            # request is declared non-replayable.
            runtime.client_request(room, "add_member", user, idempotent=False)
            runtime.client_request(user, "join", room)
    runtime.run(until=1.0)

    # Attach ActOp's locality optimizer (fast control loop for the demo).
    actop = ActOp(runtime, ActOpConfig(partitioning=PartitioningConfig(
        round_period=1.0, stats_period=0.5, cooldown=0.5,
        delta=8, candidate_fraction=0.5, candidate_max=32, warmup=1.0,
    )))
    actop.start()

    # Drive chat traffic: each second, every room gets a few messages.
    request_rng = runtime.rng.stream("demo.requests")

    def chat_tick():
        for r in range(12):
            speaker = users[r][request_rng.randrange(6)]
            runtime.client_request(speaker, "say", "hello", size=300)
        runtime.sim.schedule(0.05, chat_tick)

    runtime.sim.schedule(0.0, chat_tick)

    print(f"{'t(s)':>5} {'remote share':>13} {'migrations':>11} "
          f"{'median lat (ms)':>16}")
    last_local = last_remote = 0
    for t in range(5, 41, 5):
        runtime.reset_latency_stats()
        runtime.run(until=float(t))
        dl = runtime.msgs_local - last_local
        dr = runtime.msgs_remote - last_remote
        last_local, last_remote = runtime.msgs_local, runtime.msgs_remote
        share = dr / (dl + dr) if dl + dr else 0.0
        median = runtime.client_latency.median * 1000
        print(f"{t:>5} {share:>13.2f} {runtime.migrations_total:>11} "
              f"{median:>16.2f}")

    print()
    print("Final placement (room -> users co-located?):")
    colocated = 0
    for r, room in enumerate(rooms):
        room_server = runtime.locate(room.id)
        user_servers = [runtime.locate(u.id) for u in users[r]]
        ok = all(s == room_server for s in user_servers)
        colocated += ok
    print(f"  {colocated}/12 rooms fully co-located with their users")
    print(f"  total migrations: {runtime.migrations_total}")


if __name__ == "__main__":
    main()
