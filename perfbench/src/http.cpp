#include "http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "util.h"

namespace perfbench {

HttpReply http(int port, const std::string& method, const std::string& path,
               const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  std::string out = method + ' ' + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                    std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  for (std::size_t sent = 0; sent < out.size();) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[16384];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  const std::size_t sp = raw.find(' ');
  if (head_end == std::string::npos || sp == std::string::npos ||
      sp > head_end) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + sp + 1);
  reply.body = raw.substr(head_end + 4);
  reply.ok = reply.status > 0;
  return reply;
}

bool json_uint(const std::string& body, const std::string& key,
               unsigned long long* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoull(body.c_str() + pos + needle.size(), &end, 10);
  return end != body.c_str() + pos + needle.size();
}

bool Daemon::spawn(const std::string& bin,
                   const std::vector<std::string>& args,
                   const std::string& dir, double timeout_s, int* exit_code) {
  *exit_code = -1;
  const std::string port_file = dir + "/port.txt";
  std::remove(port_file.c_str());
  std::vector<std::string> argv_s = {bin, "--port", "auto", "--port-file",
                                     port_file};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The daemon never outlives the benchmark, even if the benchmark dies.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, 0);
    const int log = ::open((dir + "/serve.log").c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    std::vector<char*> argv;
    for (const std::string& a : argv_s) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      pid_ = -1;
      if (WIFEXITED(status)) *exit_code = WEXITSTATUS(status);
      return false;
    }
    std::ifstream pf(port_file);
    int port = 0;
    if (pf >> port && port > 0) {
      const HttpReply ready = http(port, "GET", "/readyz");
      if (ready.ok && ready.status == 200) {
        port_ = port;
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  kill_now();
  return false;
}

void Daemon::kill_now() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  port_ = 0;
}

}  // namespace perfbench
