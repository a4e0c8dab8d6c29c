"""Fixed pure-Python work that tracks the host's speed, timed by run.py.

It shares no code with kyoung, so a change to the package cannot move it.
"""


def work() -> int:
    seen: dict[tuple[int, int, int], int] = {}
    total = 0
    for i in range(100_000):
        key = (i % 97, i % 89, i & 255)
        seen[key] = seen.get(key, 0) + 1
        total += sum(x for x in key if x)
    return total + len(sorted(seen.items()))


if __name__ == "__main__":
    work()
