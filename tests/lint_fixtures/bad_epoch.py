"""Known-bad fixture: epoch-protocol violations on a registered class name."""


class JoinSampler:
    def __init__(self):
        self._descent = [1.0]
        self._epoch = 0

    def refresh(self):
        self._epoch += 1
        return False

    def sample_block(self, count):
        return self._descent[:count]

    def sample_many(self, count):
        out = list(self._descent)
        self.refresh()
        return out[:count]
