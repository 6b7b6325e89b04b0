"""Scriptable external agent for protocol tests.

Reads one request line from stdin and answers per the mode in argv[1]:
ok mirrors a valid response for the request kind (echoing its agent id),
slow sleeps SLOW_S seconds (or argv[2]) and then answers as ok, the rest
simulate specific misbehaviors.
"""

import json
import os
import sys
import time

FLOOD_BYTES = 3 << 20  # more than the engine's reply bound
SLOW_S = 1.0


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    line = sys.stdin.readline()
    req = json.loads(line)

    if mode == "hang":
        time.sleep(30)
        return
    if mode == "garbage":
        print("this is not json {")
        return
    if mode == "empty":
        return
    if mode == "crash":
        sys.stderr.write("stub agent: simulated crash\n")
        sys.exit(3)
    if mode == "flood":
        sys.stdout.write("x" * FLOOD_BYTES + "\n")
        return
    if mode == "slow":
        time.sleep(float(sys.argv[2]) if len(sys.argv) > 2 else SLOW_S)

    if req["kind"] == "data":
        payload = {
            "agent_id": req["agent_id"],
            "date": req["date"],
            "observations": [
                {"text": "steady volume uptick", "rated_symbols": [[req["universe"][0], 1]]}
            ],
            "token_length": 6,
        }
        if mode == "bad-rating":
            payload["observations"][0]["rated_symbols"] = [[req["universe"][0], 3]]
        elif mode == "bool-rating":
            payload["observations"][0]["rated_symbols"] = [[req["universe"][0], True]]
        elif mode == "over-token":
            payload["token_length"] = 5000
    else:
        payload = {
            "agent_id": req["agent_id"],
            "date": req["date"],
            "symbol": req["universe"][0] if req["universe"] else "SYM000",
            "action": "buy",
            "evidence": ["flow supports entry"],
            "limitation": "short lookback",
        }
        if mode == "bad-action":
            payload["action"] = "short"
        elif mode == "no-evidence":
            payload["evidence"] = []
    if mode == "wrong-id":
        payload["agent_id"] = req["agent_id"] + "-impostor"
    print(json.dumps(payload), flush=True)
    if mode == "linger":  # a valid reply, then the pipes closed and no exit
        os.close(1)
        os.close(2)
        time.sleep(30)


if __name__ == "__main__":
    main()
