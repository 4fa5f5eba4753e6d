"""Clean under DDC101: waits are async, file I/O runs on the fleet."""

import asyncio


class Handler:
    async def handle(self, request, lane):
        await asyncio.sleep(0.5)
        if not self._lock.acquire(timeout=1.0):
            raise TimeoutError("busy")
        self._lock.release()
        await asyncio.wait_for(self._session_lock.acquire(), 5)
        self._count()
        return await asyncio.wrap_future(lane.submit(self._read))

    def _count(self):
        with self._lock:
            self.requests += 1

    def _read(self):
        with open("/tmp/spool", "rb") as fh:
            return fh.read()
