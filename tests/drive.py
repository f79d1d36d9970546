"""Test drivers: a SUPI flow up to its challenge by direct role calls, and a
session generator held at one of its radio messages, then finished."""

from pqaka import hn as hn_mod, sn as sn_mod, ue as ue_mod


def to_challenge(world, rng):
    """Run the SUPI flow up to the challenge by direct module calls; return
    the id-response, the session id, the HN's vector and the challenge."""
    msg = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    _supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng, sid)
    return msg, sid, vector, sn_mod.sn_forward_challenge(world.sn, sid, vector)


def run_until(steps, label):
    """Pass a session's radio messages through until it yields `label`;
    return the bytes of that message, which is held."""
    message = next(steps)
    while message[0] != label:
        message = steps.send(message[1])
    return message[1]


def finish(steps, delivered):
    """Deliver `delivered` for the held message, pass the rest through and
    return the session's outcome."""
    try:
        while True:
            delivered = steps.send(delivered)[1]
    except StopIteration as stop:
        return stop.value
