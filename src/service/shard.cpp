#include "service/shard.hpp"

namespace msx::service {

namespace detail {

ConnectionSet::~ConnectionSet() { close(); }

void ConnectionSet::adopt(std::unique_ptr<Stream> s,
                          std::function<void(Stream&)> serve) {
  MutexLock lock(&mu_);
  reap_finished_locked();
  if (closed_) s->shutdown();  // late accept during stop(): serve exits fast
  auto conn = std::make_unique<Conn>();
  conn->stream = std::move(s);
  conn->done = std::make_shared<std::atomic<bool>>(false);
  Stream* raw = conn->stream.get();
  conn->thread = std::thread(
      [raw, done = conn->done, serve = std::move(serve)] {
        serve(*raw);
        done->store(true, std::memory_order_release);
      });
  conns_.push_back(std::move(conn));
}

void ConnectionSet::add_thread(std::thread t) {
  MutexLock lock(&mu_);
  threads_.push_back(std::move(t));
}

// Joins and frees every connection whose serve callback has returned — the
// done flag is the last thing the serving thread stores, so join() returns
// almost immediately.
void ConnectionSet::reap_finished_locked() {
  auto it = conns_.begin();
  while (it != conns_.end()) {
    if ((*it)->done->load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ConnectionSet::close() {
  {
    MutexLock lock(&mu_);
    closed_ = true;
    for (auto& c : conns_) c->stream->shutdown();
  }
  // Join until quiescent: an accept thread being joined may have adopted a
  // final connection (registered after closed_, so already shut down) that
  // lands in conns_ while we drain.
  for (;;) {
    std::unique_ptr<Conn> conn;
    std::thread t;
    {
      MutexLock lock(&mu_);
      if (!conns_.empty()) {
        conn = std::move(conns_.back());
        conns_.pop_back();
      } else if (!threads_.empty()) {
        t = std::move(threads_.back());
        threads_.pop_back();
      } else {
        break;
      }
    }
    if (conn != nullptr) {
      conn->stream->shutdown();  // adopted after the shutdown sweep above
      if (conn->thread.joinable()) conn->thread.join();
    } else if (t.joinable()) {
      t.join();
    }
  }
}

}  // namespace detail
}  // namespace msx::service
