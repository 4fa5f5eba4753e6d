"""Violates DDC101 one call away: the coroutine is clean, but the sync
helpers it calls block the event loop all the same."""

import time


class Handler:
    async def handle(self, request):
        delay = self._admit(request)
        return delay

    def _admit(self, request):
        self._lock.acquire()
        try:
            return self._throttle(request)
        finally:
            self._lock.release()

    def _throttle(self, request):
        time.sleep(0.1)
        return 0.0
