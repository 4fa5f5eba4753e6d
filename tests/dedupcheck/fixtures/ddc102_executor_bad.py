"""The PR 6 pool-starvation deadlock, handed over by ``run_in_executor``.

The tenant lock is taken *inside* the pool task — on a fleet thread,
with no timeout — and the task reaches the pool through the event
loop's stock executor call rather than ``submit``.  DDC102 must see
through that call too.
"""


class Session:
    def open(self):
        self.tenant.lock.acquire()
        self.warm_start()
        return self


class Connection:
    async def op_open(self, loop, pool, session):
        return await loop.run_in_executor(pool, session.open)
