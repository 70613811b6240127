// Negative-compilation probe: serve admission queue.
//
// queue_ is pushed by arbitrary client threads in Submit() and popped
// by the reader pool in WorkerLoop(); reading its size without mu_ is
// the textbook race the admission path had to be written around.
//
// MUST NOT COMPILE under Clang with -Werror=thread-safety.

#include "core/database.h"
#include "serve/query_service.h"

namespace sedge {

class ThreadSafetyProbe {
 public:
  static size_t ReadQueueWithoutLock(serve::QueryService& svc) {
    return svc.queue_.size();  // guarded-by violation: mu_ not held
  }
};

}  // namespace sedge

int main() {
  sedge::Database db;
  sedge::serve::QueryService svc(&db);
  return static_cast<int>(sedge::ThreadSafetyProbe::ReadQueueWithoutLock(svc));
}
